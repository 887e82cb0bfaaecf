package relay

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"alpha/internal/core"
	"alpha/internal/packet"
)

// TestRelayForwardZeroAlloc pins the relay's steady-state per-packet cost:
// once an exchange's S1 and A1 are buffered, verifying and forwarding its
// ALPHA-M S2s (Merkle proof against the buffered root) and A2s (AMT opening
// against the buffered AMT root) allocates nothing, decode included.
func TestRelayForwardZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop the pooled hash scratch")
	}
	cfg := core.Config{Mode: packet.ModeM, BatchSize: 8, Reliable: true, ChainLen: 64, FlushDelay: -1}
	p := newPair(t, cfg, Config{Strict: true})
	s2s := p.harvestS2s(8)
	// First pass: the relay caches the exchange's disclosed key (its one
	// per-exchange copy) and the verifier answers with A2s.
	for _, raw := range s2s {
		if d := p.through(p.b, raw); d.Verdict != Forward {
			t.Fatalf("honest S2 dropped: %v", d.Reason)
		}
	}
	a2s, _ := p.b.Poll(p.now)
	if len(a2s) != len(s2s) {
		t.Fatalf("verifier sent %d A2s for %d S2s", len(a2s), len(s2s))
	}
	for _, raw := range a2s {
		if d := p.r.ProcessFrom(p.now, 1, raw); d.Verdict != Forward || !d.AckSeen {
			t.Fatalf("honest A2 not verified: %+v", d)
		}
	}
	for _, c := range []struct {
		name     string
		upstream int
		raw      []byte
	}{{"S2", 0, s2s[5]}, {"A2", 1, a2s[5]}} {
		allocs := testing.AllocsPerRun(200, func() {
			if d := p.r.ProcessFrom(p.now, c.upstream, c.raw); d.Verdict != Forward {
				t.Fatalf("%s dropped: %v", c.name, d.Reason)
			}
		})
		if allocs != 0 {
			t.Fatalf("forwarding a verified %s allocates %.1f times, want 0", c.name, allocs)
		}
	}
}

// poisonTrace is everything observable about one run of the poison
// schedule: the relay's verdicts and extractions, both endpoints' events,
// the payloads they delivered, and all drop counters.
type poisonTrace struct {
	Verdicts   []string
	Extracted  []string
	Events     []string
	Delivered  [][]byte
	Relay      Stats
	EndpointsA core.Stats
	EndpointsB core.Stats
}

// runPoisonSchedule drives a fixed exchange schedule — handshake, two
// batches, a duplicated S1 and two tampered S2s per batch — from endpoint a
// through a strict verifying relay to endpoint b and back. In the clean run
// every hand-over gets a fresh buffer. With poison set, each datagram is
// instead handed over in one reused buffer per hop, the way a transport's
// receive slab is, and overwritten with 0xA5 the moment ProcessFrom or
// Handle returns. Anything the relay or an endpoint kept without copying
// then reads back as 0xA5 (or as a later datagram) and shows up as a
// divergent verdict, drop, or delivery.
func runPoisonSchedule(t *testing.T, cfg core.Config, poison bool) poisonTrace {
	t.Helper()
	var eps [2]*core.Endpoint
	for i := range eps {
		ep, err := core.NewEndpoint(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	r := New(Config{Strict: true})
	now := time.Unix(1_700_000_000, 0)
	relayBuf := make([]byte, packet.MaxPacketSize)
	hostBuf := make([]byte, packet.MaxPacketSize)
	// load returns the buffer a hop hands raw over in.
	load := func(buf, raw []byte) []byte {
		if !poison {
			return append([]byte(nil), raw...)
		}
		return buf[:copy(buf, raw)]
	}
	scrub := func(b []byte) {
		if poison {
			for i := range b {
				b[i] = 0xA5
			}
		}
	}
	var tr poisonTrace
	// deliver hands raw to endpoint `to`.
	deliver := func(to int, raw []byte) {
		in := load(hostBuf, raw)
		evs, err := eps[to].Handle(now, in)
		if err != nil {
			t.Fatal(err)
		}
		scrub(in)
		for _, ev := range evs {
			tr.Events = append(tr.Events, fmt.Sprintf("%d:%v seq=%d idx=%d", to, ev.Kind, ev.Seq, ev.MsgIndex))
			if ev.Kind == core.EventDelivered {
				tr.Delivered = append(tr.Delivered, ev.Payload)
			}
		}
	}
	// hop carries raw from endpoint `from` through the relay to the other.
	hop := func(from int, raw []byte) {
		in := load(relayBuf, raw)
		d := r.ProcessFrom(now, from, in)
		tr.Verdicts = append(tr.Verdicts, fmt.Sprintf("%v:%v", d.Type, d.Verdict))
		for _, x := range d.Extractions() {
			tr.Extracted = append(tr.Extracted, string(x))
		}
		fwd := raw
		if d.Rewritten != nil {
			fwd = append([]byte(nil), d.Rewritten...)
		}
		scrub(in)
		if d.Verdict != Forward {
			return
		}
		deliver(1-from, fwd)
	}
	pump := func(tamper bool) {
		for round := 0; round < 50; round++ {
			now = now.Add(5 * time.Millisecond)
			outA, evA := eps[0].Poll(now)
			outB, evB := eps[1].Poll(now)
			for _, ev := range append(evA, evB...) {
				tr.Events = append(tr.Events, fmt.Sprintf("poll:%v seq=%d idx=%d", ev.Kind, ev.Seq, ev.MsgIndex))
			}
			if len(outA) == 0 && len(outB) == 0 {
				return
			}
			for _, raw := range outA {
				switch packet.Type(raw[3]) {
				case packet.TypeS1:
					hop(0, raw) // the retransmission below hits the duplicate paths
				case packet.TypeS2, packet.TypeBundle:
					if tamper {
						// One tampered copy dies at the relay; another,
						// slipped past it straight to b, earns a verified
						// nack that the relay and a then check.
						bad := append([]byte(nil), raw...)
						bad[len(bad)-1] ^= 0x01
						hop(0, bad)
						bad[len(bad)-1] ^= 0x03
						deliver(1, bad)
						tamper = false
					}
				}
				hop(0, raw)
			}
			for _, raw := range outB {
				hop(1, raw)
			}
		}
	}
	hs1, err := eps[0].StartHandshake(now)
	if err != nil {
		t.Fatal(err)
	}
	hop(0, hs1)
	pump(false)
	for batch := 0; batch < 2; batch++ {
		for i := 0; i < cfg.BatchSize; i++ {
			if _, err := eps[0].Send(now, []byte(fmt.Sprintf("batch %d message %d", batch, i))); err != nil {
				t.Fatal(err)
			}
		}
		eps[0].Flush(now)
		pump(true)
	}
	tr.Relay = r.Stats()
	tr.EndpointsA, tr.EndpointsB = eps[0].Stats(), eps[1].Stats()
	return tr
}

// TestPoisonedBuffersMatchCleanRun is the buffer-ownership check for the
// aliasing decoder: in every mode, reliable and unreliable, and with
// bundling on, a run whose datagram buffers are scribbled over right after
// each ProcessFrom/Handle must be indistinguishable from a clean run.
func TestPoisonedBuffersMatchCleanRun(t *testing.T) {
	type variant struct {
		mode     packet.Mode
		batch    int
		reliable bool
		coalesce bool
	}
	var variants []variant
	for _, m := range []struct {
		mode  packet.Mode
		batch int
	}{{packet.ModeBase, 1}, {packet.ModeC, 4}, {packet.ModeM, 4}, {packet.ModeCM, 4}} {
		for _, reliable := range []bool{false, true} {
			variants = append(variants, variant{m.mode, m.batch, reliable, false})
		}
	}
	// Bundles: each sub-packet decodes while the outer bundle's packet
	// list is still being walked, in the relay and in the endpoint.
	variants = append(variants, variant{packet.ModeC, 4, true, true}, variant{packet.ModeM, 4, true, true})
	for _, v := range variants {
		name := fmt.Sprintf("%v/reliable=%v/coalesce=%v", v.mode, v.reliable, v.coalesce)
		t.Run(name, func(t *testing.T) {
			cfg := core.Config{Mode: v.mode, BatchSize: v.batch, CMRoots: 2, Reliable: v.reliable,
				ChainLen: 64, FlushDelay: -1, Coalesce: v.coalesce}
			clean := runPoisonSchedule(t, cfg, false)
			poisoned := runPoisonSchedule(t, cfg, true)
			if got, want := len(clean.Delivered), 2*v.batch; got != want {
				t.Fatalf("clean run delivered %d messages, want %d", got, want)
			}
			// The relay drops exactly the two tampered S2s sent its way;
			// in reliable mode the two slipped past it are nacked and
			// every message ends up acknowledged.
			if clean.Relay.Dropped != 2 || clean.Relay.BadPayload != 2 {
				t.Fatalf("clean run: relay drops %+v, want exactly the 2 tampered S2s", clean.Relay)
			}
			if v.reliable && (clean.EndpointsA.Acked != uint64(2*v.batch) || clean.EndpointsA.Nacked != 2) {
				t.Fatalf("clean run: %d/%d messages acknowledged, %d nacked (want 2)",
					clean.EndpointsA.Acked, 2*v.batch, clean.EndpointsA.Nacked)
			}
			if v.coalesce && !slices.Contains(clean.Verdicts, "Bundle:forward") {
				t.Fatalf("coalescing run carried no bundles")
			}
			if !reflect.DeepEqual(clean, poisoned) {
				t.Fatalf("poisoned run diverged from the clean run:\nclean:    %+v\npoisoned: %+v", clean, poisoned)
			}
		})
	}
}
