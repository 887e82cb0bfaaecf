package main

import (
	"fmt"
	"net"
	"sort"
	"time"

	"alpha/internal/obs"
	"alpha/internal/suite"
	"alpha/internal/telemetry"
)

// passConfig fixes one pass: a set-up, a measured window and a teardown.
type passConfig struct {
	gen    *Gen
	window time.Duration
	spans  *spanLog // nil for an untraced pass
	// spansPath prefixes the files a traced pass writes its spans to.
	spansPath string
}

// live is a workload whose stack is set up, warmed and ready to measure.
type live interface {
	// measure runs the measured window, drains, checks outputs and
	// returns what it saw. It is called at most once.
	measure(window time.Duration) *passResult
	// close stops every goroutine and socket the set-up started and
	// waits for them.
	close()
}

// workload is one named traffic mix.
type workload struct {
	name   string
	setup  func(p *passConfig) (live, error)
	ladder func(p *passConfig, budget time.Duration) (*ladderResult, error)
}

// phases is how many equal phases a measured window is cut into, one a
// second at BENCHMARK.json's 30 s window. Rates and latencies are medians
// over the phases, so a burst of noise from other tenants of the host in
// a few phases does not move them.
const phases = 30

// phaseResult is one phase of a measured window.
type phaseResult struct {
	u0, u1 usage
	ops    int       // ops completed during the phase
	msgs   int       // messages delivered during the phase
	lat    []float64 // latency of messages attempted in the phase, ms, sorted
}

// runPhases runs the measured window phase by phase on the given
// trackers, calling work until each phase ends (sleeping when work is
// nil), and returns the usage readings at the phase boundaries.
func runPhases(window time.Duration, trs []*tracker, work func()) []usage {
	us := []usage{readUsage()}
	for k := 0; k < phases; k++ {
		for _, t := range trs {
			t.setPhase(k)
		}
		end := us[0].at.Add(window * time.Duration(k+1) / phases)
		if work == nil {
			time.Sleep(time.Until(end))
		}
		for work != nil && time.Now().Before(end) {
			work()
		}
		if k == phases-1 {
			for _, t := range trs {
				t.setPhase(notMeasuring)
			}
		}
		us = append(us, readUsage())
	}
	return us
}

// fill records the measured books: ops from one tracker, messages (with
// their latencies) from another, which may be the same.
func (r *passResult) fill(us []usage, ops, msgs trackerResult) {
	r.u0, r.u1 = us[0], us[len(us)-1]
	r.window = r.u1.at.Sub(r.u0.at)
	r.attempted, r.failed = ops.attempted, ops.failed
	for k := 0; k+1 < len(us); k++ {
		ph := phaseResult{u0: us[k], u1: us[k+1], ops: ops.inPhase[k], msgs: msgs.inPhase[k], lat: msgs.lat[k]}
		r.phases = append(r.phases, ph)
		r.opsInWindow += ph.ops
		r.msgsInWindow += ph.msgs
		r.lat = append(r.lat, ph.lat...)
	}
	sort.Float64s(r.lat)
}

// passResult is everything one pass measured. An op is a delivered
// message in the stream workloads and a completed association in churn.
type passResult struct {
	phases []phaseResult

	setupS float64
	window time.Duration

	attempted, failed int       // measured ops
	opsInWindow       int       // ops completed inside the window
	msgsInWindow      int       // messages delivered inside the window
	lat               []float64 // message latency samples, ms, sorted
	hs                []float64 // handshake samples, ms, sorted (churn)
	lag               []float64 // generator lateness, ms, sorted (open loop)

	u0, u1 usage
	s0, s1 snapshot
	suites [3]suiteCounts // client, relay, server, over the window

	dispatchP99us float64
	spansPerSec   float64 // program span emission across every node
	tracerPerSec  float64 // program tracer events across every node

	spans    *spanLog // the pass's call spans (traced passes)
	problems []string // output checks that failed
}

// role indices for per-node instruments.
const (
	roleClient = iota
	roleRelay
	roleServer
)

var roleNames = [3]string{"client", "relay", "server"}

// instruments are the per-node hash suites of a pass: timing wrappers when
// traced, plain SHA-1 otherwise.
type instruments [3]*timedSuite

func newInstruments(traced bool) instruments {
	var in instruments
	if traced {
		for i := range in {
			in[i] = newTimedSuite(suite.SHA1())
		}
	}
	return in
}

// suite returns the suite a node's config should carry.
func (in instruments) suite(role int) suite.Suite {
	if in[role] == nil {
		return suite.SHA1()
	}
	return in[role]
}

// override returns the relay's SuiteOverride: nil unless traced, so the
// untraced relay resolves suites from headers as deployed.
func (in instruments) override() suite.Suite {
	if in[roleRelay] == nil {
		return nil
	}
	return in[roleRelay]
}

func (in instruments) read() [3]suiteCounts {
	var out [3]suiteCounts
	for i, s := range in {
		out[i] = s.read()
	}
	return out
}

// nodeObs is one node's program observability, wired as alphanode wires
// it: a packet tracer and a flight recorder whose shared ring takes the
// node's spans.
type nodeObs struct {
	tracer *telemetry.Tracer
	rec    *obs.Recorder
}

func newNodeObs() *nodeObs {
	return &nodeObs{tracer: telemetry.NewTracer(4096), rec: obs.NewRecorder(obs.DefaultSpanRingSize)}
}

// ringRate estimates how many records per second a ring took during the
// window ending at t1: the ring keeps only its newest records, so the count
// is taken over the part of the window the ring still covers.
func ringRate(times []int64, t1 time.Time, window time.Duration) float64 {
	if len(times) < 2 {
		return 0
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	end := t1.UnixNano()
	lo := end - int64(window)
	if times[0] > lo {
		lo = times[0]
	}
	n := 0
	for _, t := range times {
		if t >= lo && t <= end {
			n++
		}
	}
	if end <= lo {
		return 0
	}
	return float64(n) / (float64(end-lo) / 1e9)
}

// rates returns the node's span and tracer-event rates over the window.
func (o *nodeObs) rates(t1 time.Time, window time.Duration) (spans, events float64) {
	if o == nil {
		return 0, 0
	}
	rings := append(o.rec.Assocs(), 0)
	seen := map[uint64]bool{}
	for _, a := range rings {
		if seen[a] {
			continue
		}
		seen[a] = true
		var ts []int64
		for _, s := range o.rec.Snapshot(a) {
			ts = append(ts, s.Time)
		}
		spans += ringRate(ts, t1, window)
	}
	var ts []int64
	for _, e := range o.tracer.Snapshot() {
		ts = append(ts, e.Time)
	}
	return spans, ringRate(ts, t1, window)
}

// listen opens a loopback UDP socket on an ephemeral port.
func listen() (net.PacketConn, error) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	return pc, nil
}

// chainLen sizes a hash chain for a run: two elements per exchange per
// chain, exchanges bounded by the most ops per second the run could
// plausibly reach, plus slack. Chains run out only if a run beats maxRate.
func chainLen(maxRate float64, d time.Duration, batch int) int {
	exchanges := int(maxRate*d.Seconds())/batch + 1
	return 2*exchanges + 64
}
