// Command alphasim runs multi-hop ALPHA scenarios on the deterministic
// network simulator and reports delivery, drop and relay statistics. It is
// the quickest way to observe the protocol's hop-by-hop filtering under
// configurable topologies, loss rates and attacks.
//
// Usage:
//
//	alphasim -hops 3 -mode M -batch 16 -msgs 100 -loss 0.1 -reliable
//	alphasim -attack tamper -msgs 20
//	alphasim -attack flood -msgs 5
//
// The topology is a linear path: signer - relay1..relayN - verifier, the
// protected path of the paper's Figure 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"alpha/internal/adaptive"
	"alpha/internal/attack"
	"alpha/internal/core"
	"alpha/internal/netsim"
	"alpha/internal/obs"
	"alpha/internal/packet"
	"alpha/internal/relay"
	"alpha/internal/stats"
	"alpha/internal/suite"
	"alpha/internal/telemetry"
	"alpha/internal/workload"
)

func main() {
	var (
		topo      = flag.String("topo", "line", "topology: line, grid, random")
		hops      = flag.Int("hops", 3, "relays on the path (line), grid side, or mesh size")
		modeStr   = flag.String("mode", "base", "mode: base, C, M, or CM")
		batch     = flag.Int("batch", 8, "messages per S1 (modes C and M)")
		msgs      = flag.Int("msgs", 50, "number of messages to send")
		size      = flag.Int("size", 512, "payload size in bytes")
		loss      = flag.Float64("loss", 0, "per-hop loss probability")
		latency   = flag.Duration("latency", 2*time.Millisecond, "per-hop latency")
		jitter    = flag.Duration("jitter", time.Millisecond, "per-hop jitter")
		bw        = flag.Int64("bw", 20_000_000, "per-hop bandwidth (bit/s, 0 = infinite)")
		reliable  = flag.Bool("reliable", false, "use pre-(n)ack reliable delivery")
		suiteStr  = flag.String("suite", "sha1", "hash suite: sha1, sha256, mmo")
		attackK   = flag.String("attack", "none", "attack: none, tamper, flood, replay")
		workloadK = flag.String("workload", "bulk", "workload: bulk, signaling, sensor")
		seed      = flag.Int64("seed", 42, "simulation seed")
		duration  = flag.Duration("duration", 60*time.Second, "max simulated time")
		adaptOn   = flag.Bool("adaptive", false, "attach the closed-loop mode/batch controller to the signer (-mode/-batch become the starting profile)")
		lossShift = flag.Duration("loss-shift", 0, "shifting-loss scenario (line topology): hops run clean for this long, take -loss for an equal phase, then recover")
		flightLen = flag.Int("flight-size", 8192, "per-hop span ring size for the exchange-timeline report (0 disables span capture)")
		otlpEP    = flag.String("otlp-endpoint", "", "push the final metrics snapshot and captured spans to this OTLP/HTTP collector (requires a build with -tags alpha_otlp)")
	)
	flag.Parse()
	if *lossShift > 0 && *topo != "line" {
		fmt.Fprintln(os.Stderr, "-loss-shift requires -topo line")
		os.Exit(2)
	}

	var mode packet.Mode
	switch *modeStr {
	case "base":
		mode = packet.ModeBase
	case "C", "c":
		mode = packet.ModeC
	case "M", "m":
		mode = packet.ModeM
	case "CM", "cm":
		mode = packet.ModeCM
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *modeStr)
		os.Exit(2)
	}
	var st suite.Suite
	switch *suiteStr {
	case "sha1":
		st = suite.SHA1()
	case "sha256":
		st = suite.SHA256()
	case "mmo":
		st = suite.MMO()
	default:
		fmt.Fprintf(os.Stderr, "unknown suite %q\n", *suiteStr)
		os.Exit(2)
	}

	cfg := core.Config{
		Suite:      st,
		Mode:       mode,
		Reliable:   *reliable,
		ChainLen:   4 * (*msgs) / max(1, *batch) * max(1, *batch), // headroom
		BatchSize:  *batch,
		RTO:        100 * time.Millisecond,
		MaxRetries: 20,
	}
	if cfg.ChainLen < 64 {
		cfg.ChainLen = 64
	}
	if *adaptOn {
		// The controller may shrink the batch (down to Basic's one message
		// per exchange), so size the chain for the worst case.
		cfg.ChainLen = 8 * max(64, *msgs)
	}

	// One span ring per hop: exchange timelines reconstruct from these at
	// exit, correlated by the shared hash-chain element (no wire change).
	var ringS, ringV *obs.SpanRing
	if *flightLen > 0 {
		ringS = obs.NewSpanRing(*flightLen)
		ringV = obs.NewSpanRing(*flightLen)
	}

	net := netsim.New(*seed)
	cfgS, cfgV := cfg, cfg
	cfgS.Spans, cfgV.Spans = ringS, ringV
	epS, err := core.NewEndpoint(cfgS)
	check(err)
	epV, err := core.NewEndpoint(cfgV)
	check(err)
	s := netsim.NewEndpointNode(net, "signer", "verifier", epS)
	v := netsim.NewEndpointNode(net, "verifier", "signer", epV)

	linkLoss := *loss
	if *lossShift > 0 {
		linkLoss = 0 // the lossy phase is scheduled below via VaryDuplexLink
	}
	link := netsim.LinkConfig{Latency: *latency, Jitter: *jitter, Loss: linkLoss, Bandwidth: *bw}
	var lineNames []string
	var relays []*netsim.RelayNode
	var relayRings []*obs.SpanRing
	addRelay := func(name string, tamper bool) {
		if tamper {
			attack.NewTamperNode(net, name, []byte("tampered payload"))
			return
		}
		var ring *obs.SpanRing
		if *flightLen > 0 {
			ring = obs.NewSpanRing(*flightLen)
		}
		relayRings = append(relayRings, ring)
		relays = append(relays, netsim.NewRelayNode(net, name, relay.Config{Spans: ring}))
	}
	switch *topo {
	case "line":
		names := []string{"signer"}
		for i := 1; i <= *hops; i++ {
			name := fmt.Sprintf("relay%d", i)
			addRelay(name, i == 1 && *attackK == "tamper")
			names = append(names, name)
		}
		names = append(names, "verifier")
		net.Line(link, names...)
		lineNames = names
	case "grid":
		// signer and verifier sit at opposite corners of a hops×hops
		// relay grid.
		side := *hops
		if side < 2 {
			side = 2
		}
		for r := 0; r < side; r++ {
			for c := 0; c < side; c++ {
				addRelay(fmt.Sprintf("relay%d_%d", r, c), r == 0 && c == 0 && *attackK == "tamper")
			}
		}
		net.Grid(link, side, side, "relay%d_%d")
		net.AddDuplexLink("signer", "relay0_0", link)
		net.AddDuplexLink(fmt.Sprintf("relay%d_%d", side-1, side-1), "verifier", link)
	case "random":
		names := []string{"signer", "verifier"}
		for i := 1; i <= *hops; i++ {
			name := fmt.Sprintf("relay%d", i)
			addRelay(name, i == 1 && *attackK == "tamper")
			names = append(names, name)
		}
		net.RandomMesh(*seed, link, *hops, names...)
	default:
		fmt.Fprintf(os.Stderr, "unknown topology %q\n", *topo)
		os.Exit(2)
	}
	net.AutoRoute()
	if *topo != "line" {
		fmt.Printf("topology %s: route signer->verifier starts at %s\n", *topo, firstHop(net))
	}

	check(s.Start(net.Now()))
	for i := 0; i < 200 && !epS.Established(); i++ {
		net.RunFor(100 * time.Millisecond)
	}
	if !epS.Established() {
		fmt.Fprintln(os.Stderr, "association failed to establish")
		os.Exit(1)
	}
	fmt.Printf("association established over %d hops (assoc %016x)\n\n", *hops+1, epS.Assoc())

	var ctrlMet *telemetry.ControllerMetrics
	if *adaptOn {
		ctrlMet = &telemetry.ControllerMetrics{}
		s.AttachAdaptive(adaptive.Config{Metrics: ctrlMet})
		fmt.Printf("adaptive controller attached (starting profile %v/%d)\n", mode, cfg.BatchSize)
	}
	if *lossShift > 0 {
		lossy := link
		lossy.Loss = *loss
		for i := 0; i+1 < len(lineNames); i++ {
			check(net.VaryDuplexLink(lineNames[i], lineNames[i+1],
				netsim.LinkPhase{Start: *lossShift, Config: lossy},
				netsim.LinkPhase{Start: 2 * *lossShift, Config: link},
			))
		}
		fmt.Printf("loss shifts: 0%% for %v, then %.0f%% for %v, then 0%%\n", *lossShift, *loss*100, *lossShift)
	}

	if *attackK == "flood" {
		fl := attack.NewFloodNode(net, "mallory", "verifier", epS.Assoc())
		net.AddDuplexLink("mallory", "relay1", link)
		net.AutoRoute()
		fl.FloodFor(net, net.Now(), 2*time.Second, 500)
		fmt.Println("flood attack: 500 forged S2 packets injected at relay1")
	}
	var rep *attack.ReplayNode
	if *attackK == "replay" {
		// Splice a capture node before the first relay by rerouting.
		rep = attack.NewReplayNode(net, "tap")
		net.AddDuplexLink("signer", "tap", link)
		net.AddDuplexLink("tap", "relay1", link)
		net.SetRoute("signer", "verifier", "tap")
		net.SetRoute("tap", "verifier", "relay1")
	}

	var gen workload.Generator
	switch *workloadK {
	case "bulk":
		gen = workload.Bulk{Seed: *seed, Count: *msgs, Size: *size, Pace: 2 * time.Millisecond}
	case "signaling":
		gen = workload.Signaling{Seed: *seed, Count: *msgs, MeanGap: 250 * time.Millisecond, Size: *size}
	case "sensor":
		gen = workload.Sensor{Seed: *seed, Count: *msgs, Period: 100 * time.Millisecond, Jitter: 20 * time.Millisecond, Size: *size}
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workloadK)
		os.Exit(2)
	}
	fmt.Printf("workload: %s\n", gen.Name())
	start := net.Now()
	msgsList := gen.Messages()
	lastAt := time.Duration(0)
	for _, m := range msgsList {
		if m.At > lastAt {
			lastAt = m.At
		}
	}
	for _, m := range msgsList {
		m := m
		net.Schedule(start.Add(m.At), func(now time.Time) {
			if _, err := s.Send(now, m.Payload); err != nil {
				fmt.Fprintf(os.Stderr, "send: %v\n", err)
			}
		})
	}
	net.Schedule(start.Add(lastAt+10*time.Millisecond), func(now time.Time) {
		s.Flush(now)
	})
	net.RunFor(*duration)
	if rep != nil {
		fmt.Printf("replaying %d captured packets\n", len(rep.Captured))
		rep.ReplayAll(net)
		net.RunFor(5 * time.Second)
	}

	// Report.
	delivered := v.DeliveredPayloads()
	t := &stats.Table{Title: "Results", Headers: []string{"Metric", "Value"}}
	t.Add("messages sent", *msgs)
	t.Add("messages delivered+verified", len(delivered))
	t.Add("acked end-to-end", s.CountEvents(core.EventAcked))
	t.Add("send failures", s.CountEvents(core.EventSendFailed))
	t.Add("signer retransmits", epS.Stats().Retransmits)
	t.Add("signer bytes sent", stats.Bytes(int64(epS.Stats().BytesSent)))
	t.Add("verifier drops", epV.Stats().Dropped)
	if ctrlMet != nil {
		p := epS.Profile()
		t.Add("adaptive decisions", ctrlMet.Decisions.Load())
		t.Add("adaptive flaps", ctrlMet.Flaps.Load())
		t.Add("mode changes", s.CountEvents(core.EventModeChanged))
		t.Add("final profile", fmt.Sprintf("%v/%d", p.Mode, p.BatchSize))
	}
	fmt.Print(t)
	fmt.Println()

	rt := &stats.Table{Title: "Per-relay verdicts", Headers: []string{"Relay", "forwarded", "dropped", "unsolicited", "bad payload", "bad element", "rate-limited", "extracted"}}
	for _, rn := range relays {
		st := rn.R.Stats()
		rt.Add(rn.Name, st.Forwarded, st.Dropped, st.Unsolicited, st.BadPayload, st.BadElement, st.RateLimited, stats.Bytes(int64(st.ExtractedBytes)))
	}
	fmt.Print(rt)

	// Full telemetry snapshot: the same metric namespace a live alphanode
	// serves on /metrics, here taken programmatically at exit.
	exp := telemetry.NewExporter()
	exp.Register("signer", epS.Telemetry())
	exp.Register("verifier", epV.Telemetry())
	for _, rn := range relays {
		exp.Register(rn.Name, rn.R.Telemetry())
	}
	fmt.Println("\nTelemetry snapshot")
	check(exp.WriteText(os.Stdout))

	// Observability report: correlate the per-hop span rings into exchange
	// timelines, then hold the final metric state to the invariant catalog
	// (benign runs only — attacks are supposed to violate I2).
	var allSpans []obs.Span
	if *flightLen > 0 {
		spanHops := []obs.HopSpans{{Hop: "signer", Spans: ringS.Snapshot()}}
		for i, rn := range relays {
			spanHops = append(spanHops, obs.HopSpans{Hop: rn.Name, Spans: relayRings[i].Snapshot()})
		}
		vSpans := ringV.Snapshot()
		spanHops = append(spanHops, obs.HopSpans{Hop: "verifier", Spans: vSpans})
		for _, h := range spanHops {
			allSpans = append(allSpans, h.Spans...)
		}
		timelines := obs.Reconstruct(spanHops)
		complete := 0
		for _, entries := range timelines {
			sent, deliver := false, false
			for _, e := range entries {
				if e.Hop == "signer" && e.Span.Verdict == obs.VerdictSent {
					sent = true
				}
				if e.Hop == "verifier" && e.Span.Verdict == obs.VerdictDeliver {
					deliver = true
				}
			}
			if sent && deliver {
				complete++
			}
		}
		ot := &stats.Table{Title: "Observability", Headers: []string{"Metric", "Value"}}
		ot.Add("spans captured", len(allSpans))
		ot.Add("exchange timelines", len(timelines))
		ot.Add("timelines spanning signer to verifier", complete)
		fmt.Println()
		fmt.Print(ot)
	}
	if *attackK == "none" {
		snap, _, err := obs.Collect(exp)
		check(err)
		stS, stV := epS.Stats(), epV.Stats()
		offered := stS.SentS1 + stS.SentS2 + stS.Retransmits + stV.SentS1 + stV.SentS2 + 400
		inv := obs.Invariants{Benign: true, Offered: offered, Loss: *loss, Hops: *hops}
		if viol := inv.Check(snap); len(viol) > 0 {
			fmt.Fprintln(os.Stderr, "\ntelemetry invariant violations:")
			for _, v := range viol {
				fmt.Fprintf(os.Stderr, "  %s\n", v)
			}
			os.Exit(1)
		}
		fmt.Println("\ntelemetry invariants: I1-I4 hold")
	}
	if *otlpEP != "" {
		if !obs.OTLPEnabled {
			fmt.Fprintln(os.Stderr, "warning: -otlp-endpoint ignored: this binary was built without -tags alpha_otlp")
		} else {
			otlp := obs.NewOTLPExporter(*otlpEP)
			check(otlp.PushMetrics(exp, time.Now().UnixNano()))
			check(otlp.PushSpans(allSpans))
			fmt.Printf("pushed final snapshot and %d spans to %s\n", len(allSpans), *otlpEP)
		}
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func firstHop(net *netsim.Network) string {
	hop, ok := net.NextHop("signer", "verifier")
	if !ok {
		return "(no route)"
	}
	return hop
}
