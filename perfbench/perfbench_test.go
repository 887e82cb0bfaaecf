package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"alpha/internal/admission"
	"alpha/internal/packet"
)

func TestGeneratorsAreDeterministic(t *testing.T) {
	a, b, c := NewGen(7), NewGen(7), NewGen(8)
	pa := a.Payload(nil, 42, 1024)
	if !bytes.Equal(pa, b.Payload(nil, 42, 1024)) {
		t.Fatal("same seed gave different payloads")
	}
	if bytes.Equal(pa, c.Payload(nil, 42, 1024)) {
		t.Fatal("different seeds gave the same payload")
	}
	if idx, ok := b.Check(pa, 1024); !ok || idx != 42 {
		t.Fatalf("Check(Payload(42)) = %d, %v", idx, ok)
	}
	if _, ok := c.Check(pa, 1024); ok {
		t.Fatal("a payload of another seed passed the check")
	}
	ta, tb := a.Arrivals(2000, time.Second), b.Arrivals(2000, time.Second)
	if len(ta) != len(tb) || len(ta) < 1800 || len(ta) > 2200 {
		t.Fatalf("arrival counts %d and %d, want equal and near 2000", len(ta), len(tb))
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, ta[i], tb[i])
		}
	}
	if !bytes.Equal(a.Hostile(3, 99, true), b.Hostile(3, 99, true)) {
		t.Fatal("same seed gave different forgeries")
	}
	if !bytes.Equal(a.HostileHS1(3), b.HostileHS1(3)) || bytes.Equal(a.HostileHS1(3), c.HostileHS1(3)) {
		t.Fatal("forged handshakes do not follow the seed")
	}
}

func TestForgedHandshakesCarryNoValidToken(t *testing.T) {
	g := NewGen(1)
	seen := map[uint64]bool{}
	for i := uint64(0); i < 8; i++ {
		hdr, msg, err := packet.Decode(g.HostileHS1(i))
		if err != nil {
			t.Fatalf("forged handshake %d does not decode: %v", i, err)
		}
		hs, ok := msg.(*packet.Handshake)
		if !ok || hdr.Type != packet.TypeHS1 || seen[hdr.Assoc] {
			t.Fatalf("forged handshake %d should be an HS1 for a fresh association", i)
		}
		seen[hdr.Assoc] = true
		if hs.HasToken != (i%2 == 1) || (hs.HasToken && len(hs.Token) != admission.TokenLen) {
			t.Fatalf("forged handshake %d: token %v of %d bytes", i, hs.HasToken, len(hs.Token))
		}
	}
}

func TestForgeriesNeverPassTheCheck(t *testing.T) {
	g := NewGen(1)
	for i := uint64(0); i < 64; i++ {
		hdr, msg, err := packet.Decode(g.Hostile(i, 99, true))
		if err != nil {
			t.Fatalf("forgery %d does not decode: %v", i, err)
		}
		s2, ok := msg.(*packet.S2)
		if i%2 == 1 {
			if ok || hdr.Type != packet.TypeS1 || hdr.Assoc == 99 {
				t.Fatalf("odd forgery %d should be an S1 for an unknown association", i)
			}
			continue
		}
		if !ok || hdr.Assoc != 99 {
			t.Fatalf("even forgery %d should be an S2 for the live association", i)
		}
		if idx, pass := g.Check(s2.Payload, len(s2.Payload)); pass || idx&hostileBit == 0 {
			t.Fatalf("forged payload %d passed the check or lacks the hostile marker", i)
		}
	}
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n     int
		max   float64
		wantP float64
	}{
		{5, 99, 50},      // too few: median
		{20, 99, 50},     // p90 has 2 beyond
		{100, 99, 90},    // p90 has 10 beyond, p99 has 1
		{1000, 99, 99},   // p99 has exactly 10 beyond
		{1000, 99.9, 99}, // p99.9 has 1 beyond
		{100000, 99, 99}, // capped at max
		{100000, 99.99, 99.99},
	}
	for _, c := range cases {
		got := tail(mk(c.n), c.max)
		if got.P != c.wantP || got.N != c.n {
			t.Errorf("tail(n=%d, max=%g) = p%g of %d, want p%g of %d", c.n, c.max, got.P, got.N, c.wantP, c.n)
		}
		if beyond := c.n - int(got.Value); c.n > 10 && got.P > 50 && beyond < 10 {
			t.Errorf("n=%d: p%g leaves %d samples beyond", c.n, got.P, beyond)
		}
	}
	if v := percentile(mk(1000), 99); v != 990 {
		t.Errorf("nearest-rank p99 of 1..1000 = %v, want 990", v)
	}
}

func TestDroppedMessageFailsAndFreesItsSlot(t *testing.T) {
	tr := newTracker(2, 100*time.Millisecond, 2)
	tr.setPhase(0)
	t0 := time.Unix(1000, 0)
	a, _ := tr.acquire()
	tr.started(a, t0)
	b, _ := tr.acquire()
	tr.started(b, t0)
	// The window is full: a third acquire must wait for a slot.
	got := make(chan int, 1)
	go func() {
		i, _ := tr.acquire()
		got <- i
	}()
	tr.deliver(a, t0.Add(10*time.Millisecond))
	third := <-got
	tr.started(third, t0.Add(20*time.Millisecond))
	// b is never delivered: past its deadline it fails and frees its slot.
	tr.expire(t0.Add(150 * time.Millisecond))
	fourth := make(chan int, 1)
	go func() {
		i, _ := tr.acquire()
		fourth <- i
	}()
	select {
	case <-fourth:
	case <-time.After(5 * time.Second):
		t.Fatal("the failed message's slot never came back")
	}
	r := tr.result()
	if r.attempted != 4 || r.delivered != 1 || r.failed != 2 {
		t.Fatalf("attempted/delivered/failed = %d/%d/%d, want 4/1/2", r.attempted, r.delivered, r.failed)
	}
	if lat := r.lat[0]; lat[len(lat)-1] != 100 {
		t.Fatalf("a failed op must count as its deadline, got latencies %v", lat)
	}
	// A late delivery neither resurrects the op nor counts as a duplicate.
	tr.deliver(b, t0.Add(200*time.Millisecond))
	if r := tr.result(); r.delivered != 1 || r.failed != 2 || r.inPhase[0] != 1 || tr.duplicates != 0 || tr.late != 1 {
		t.Fatalf("late delivery changed the books: delivered=%d failed=%d in phase=%d dup=%d late=%d",
			r.delivered, r.failed, r.inPhase[0], tr.duplicates, tr.late)
	}
	if tr.deliver(a, t0) {
		t.Fatal("a duplicate delivery was accepted")
	}
	if r := tr.result(); r.inPhase[0] != 1 {
		t.Fatalf("a duplicate delivery counted in its phase: %d deliveries", r.inPhase[0])
	}
}

func TestOverheadArithmetic(t *testing.T) {
	cases := []struct {
		untraced, traced float64
		higher           bool
		want             float64
	}{
		{100, 110, false, 0.10},  // cost 10% higher when traced
		{100, 90, false, -0.10},  // traced came out cheaper
		{2000, 1600, true, 0.25}, // throughput: 2000/1600 - 1
		{0, 5, false, 0},         // no baseline, no figure
	}
	for _, c := range cases {
		if got := overhead(c.untraced, c.traced, c.higher); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("overhead(%v, %v, %v) = %v, want %v", c.untraced, c.traced, c.higher, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists and
// the names the program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name string }, want []string) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d names, program prints %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %q, program %q", what, i, got[i].Name, want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndNames)
	same("per_layer", spec.PerLayer, perLayerNames)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}

func TestLadderRungsReportEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("opens loopback sockets")
	}
	p := &passConfig{gen: NewGen(3)} // untraced: the rungs write no span files
	ld, err := streamLadder(signalSpec)(p, 600*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(ld.problems) > 0 {
		t.Fatal(ld.problems)
	}
	for rung := rungEngine; rung <= rungUDPIO; rung++ {
		if ld.rungs[rung].ops == 0 {
			t.Fatalf("rung %s delivered nothing", rungNames[rung])
		}
	}
	if ld.rungs[rungRelay].mean("relay.ProcessFrom.drop") == 0 {
		t.Error("the relay rung never timed a dropped forgery")
	}
	if ld.rungs[rungUDPIO].perOp(udpioSpans...) == 0 {
		t.Error("the udpio rung timed no socket calls")
	}
}
