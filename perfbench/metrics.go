package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// endToEndNames are the metrics an untraced run prints on every workload,
// in BENCHMARK.json's end_to_end order: the ones whose runs of the same
// code agree on a shared host. reportedNames are printed above the result
// line but not gated: wall-clock rates and latencies, and the syscall
// count, which follows how the host schedules the process (NOTES.md).
var endToEndNames = []string{
	"cpu_us_per_op", "allocs_per_op", "peak_rss_mb", "setup_s",
}

var reportedNames = []string{
	"goodput_msg_s", "latency_p50_ms", "latency_p99_ms", "syscalls_per_op", "failed_share",
}

// relayReasons are the relay drop reasons reported one by one; the rest
// are summed under "other".
var relayReasons = []string{"unsolicited", "bad_element", "bad_payload", "strict_policy", "s1_ratelimit"}

// admissionReasons are the admission tier's reject reasons.
var admissionReasons = []string{"missing", "invalid", "expired", "replayed", "addr_mismatch"}

// perLayerNames are the metrics a traced run prints on every workload, in
// BENCHMARK.json's per_layer order.
var perLayerNames = func() []string {
	var out []string
	for _, k := range []string{"hashes_per_op", "macs_per_op", "busy_us_per_op"} {
		for _, r := range roleNames {
			out = append(out, "suite."+k+"."+r)
		}
	}
	out = append(out,
		"udpio.syscalls_per_op.relay", "udpio.syscalls_per_op.server",
		"udpio.dgrams_per_syscall", "udpio.busy_us_per_op",
		"core.busy_us_per_op", "core.retransmits_per_op", "core.new_endpoint_ms",
		"relay.forward_us_per_dgram", "relay.drop_us_per_dgram")
	for _, r := range relayReasons {
		out = append(out, "relay.drops_per_op."+r)
	}
	out = append(out, "relay.drops_per_op.other",
		"udptransport.send_call_us", "udptransport.dispatch_p99_us",
		"udptransport.inbox_drops_per_op", "udptransport.self_us_per_op",
		"admission.mint_us")
	for _, r := range admissionReasons {
		out = append(out, "admission.rejects_per_op."+r)
	}
	return append(out,
		"obs.spans_per_op", "obs.tracer_events_per_op",
		"runtime.gc_cpu_share", "loadgen.lag_p99_ms",
		"ladder.engine_us_per_op", "ladder.relay_us_per_op", "ladder.udpio_us_per_op",
		"trace.overhead.cpu_us_per_op", "trace.overhead.goodput_msg_s", "trace.overhead.latency_p50_ms")
}()

// perOp divides a count by the pass's ops, 0 when nothing completed.
func (r *passResult) perOp(v float64) float64 {
	if r.opsInWindow == 0 {
		return 0
	}
	return v / float64(r.opsInWindow)
}

func (r *passResult) d(name string) float64 { return delta(r.s0, r.s1, name) }

// syscalls sums the program's batched read and write calls of one metric
// family over the window.
func (r *passResult) syscalls(family string) float64 {
	return r.d(family+"_io_read_batches") + r.d(family+"_io_write_batches")
}

// phaseMedian is the median over the pass's phases of f, skipping phases
// where f has no value.
func (r *passResult) phaseMedian(f func(ph *phaseResult) (float64, bool)) float64 {
	var vs []float64
	for i := range r.phases {
		if v, ok := f(&r.phases[i]); ok {
			vs = append(vs, v)
		}
	}
	return median(vs)
}

func (ph *phaseResult) seconds() float64 { return ph.u1.at.Sub(ph.u0.at).Seconds() }

func (r *passResult) goodput() float64 {
	return r.phaseMedian(func(ph *phaseResult) (float64, bool) { return float64(ph.msgs) / ph.seconds(), true })
}

func (r *passResult) cpuPerOp() float64 {
	return r.perOp(float64(r.u1.cpu-r.u0.cpu) / 1e3)
}

// latency is the median over phases of each phase's latency percentile
// (p at most), with the smallest phase's tail as evidence.
func (r *passResult) latency(p float64) (float64, Tail) {
	least := Tail{N: -1}
	v := r.phaseMedian(func(ph *phaseResult) (float64, bool) {
		t := tail(ph.lat, p)
		if least.N < 0 || t.N < least.N {
			least = t
		}
		return t.Value, t.N > 0
	})
	return v, least
}

// endToEnd derives the user-visible metrics of one pass, including the
// ones reported but not gated. Rates and latency are medians over the
// phases; CPU and counts per op are over the whole window.
func endToEnd(r *passResult) map[string]metric {
	p50, _ := r.latency(50)
	p99 := tail(r.lat, 99)
	hs := tail(r.hs, 99)
	failedShare := 0.0
	if r.attempted > 0 {
		failedShare = float64(r.failed) / float64(r.attempted)
	}
	return map[string]metric{
		"goodput_msg_s":   {r.goodput(), "1/s"},
		"latency_p50_ms":  {p50, "ms"},
		"latency_p99_ms":  {p99.Value, "ms"},
		"cpu_us_per_op":   {r.cpuPerOp(), "us"},
		"allocs_per_op":   {r.perOp(float64(r.u1.allocs - r.u0.allocs)), "count"},
		"syscalls_per_op": {r.perOp(r.syscalls("alpha_relay_transport") + r.syscalls("alpha_transport")), "count"},
		"peak_rss_mb":     {peakRSSMB(), "MiB"},
		"setup_s":         {r.setupS, "s"},
		"failed_share":    {failedShare, "ratio"},
		"assoc_s": {r.phaseMedian(func(ph *phaseResult) (float64, bool) {
			return float64(ph.ops) / ph.seconds(), true
		}), "1/s"},
		"handshake_p50_ms": {percentile(r.hs, 50), "ms"},
		"handshake_p99_ms": {hs.Value, "ms"},
	}
}

// describe renders a pass for the human report: every end-to-end metric,
// the evidence behind the tails, and any failed check.
func describe(w workload, r *passResult, m map[string]metric) []string {
	names := append(append([]string(nil), endToEndNames...), reportedNames...)
	if w.name == "churn" {
		names = append(names, "assoc_s", "handshake_p50_ms", "handshake_p99_ms")
	}
	var out []string
	for _, n := range names {
		out = append(out, fmt.Sprintf("%-18s %14.4f %s", n, m[n].Value, m[n].Unit))
	}
	_, least := r.latency(50)
	whole := tail(r.lat, 99)
	out = append(out, fmt.Sprintf("latency: p50 is the median over %d phases of at least %d samples each; latency_p99_ms is p%g of all %d samples (failed ops count as their deadline)",
		len(r.phases), least.N, whole.P, whole.N))
	if w.name == "churn" {
		hs := tail(r.hs, 99)
		out = append(out, fmt.Sprintf("handshake tail: p%g of %d samples", hs.P, hs.N))
	}
	out = append(out, fmt.Sprintf("ops: %d attempted, %d failed, %d completed in a %.2fs window; traffic crossed loopback, not a real link",
		r.attempted, r.failed, r.opsInWindow, r.window.Seconds()))
	var per []string
	for i := range r.phases {
		ph := &r.phases[i]
		per = append(per, fmt.Sprintf("%.0f/s %.1fus", float64(ph.msgs)/ph.seconds(), float64(ph.u1.cpu-ph.u0.cpu)/1e3/math.Max(1, float64(ph.ops))))
	}
	out = append(out, "per phase (messages delivered, cpu per op): "+strings.Join(per, ", "))
	if len(r.lag) > 0 {
		lag := tail(r.lag, 99)
		out = append(out, fmt.Sprintf("open-loop generator lateness: p50 %.4f ms, p%g %.4f ms of %d sends",
			percentile(r.lag, 50), lag.P, lag.Value, lag.N))
	}
	var drops []string
	for name := range r.s1.vals {
		if (strings.Contains(name, "_drop_") || strings.HasSuffix(name, "_inbox_drops") || strings.HasSuffix(name, "_retransmits")) && r.d(name) > 0 {
			drops = append(drops, fmt.Sprintf("%s=%.0f", name, r.d(name)))
		}
	}
	if len(drops) > 0 {
		sort.Strings(drops)
		out = append(out, "program drops and retransmits in the window: "+strings.Join(drops, " "))
	}
	for _, p := range r.problems {
		out = append(out, "CHECK FAILED: "+p)
	}
	return out
}

// perLayer derives the per-layer metrics of a traced run: program counters
// from the untraced pass up, call and suite timings from the traced pass
// tp, engine self times from the ladder ld.
func perLayer(up, tp *passResult, ld *ladderResult) map[string]metric {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	for i, role := range roleNames {
		s := tp.suites[i]
		set("suite.hashes_per_op."+role, tp.perOp(float64(s.hashes)), "count")
		set("suite.macs_per_op."+role, tp.perOp(float64(s.macs)), "count")
		set("suite.busy_us_per_op."+role, tp.perOp(float64(s.busy)/1e3), "us")
	}
	set("udpio.syscalls_per_op.relay", up.perOp(up.syscalls("alpha_relay_transport")), "count")
	set("udpio.syscalls_per_op.server", up.perOp(up.syscalls("alpha_transport")), "count")
	calls := up.syscalls("alpha_relay_transport") + up.syscalls("alpha_transport")
	dgrams := 0.0
	for _, f := range []string{"alpha_relay_transport", "alpha_transport"} {
		dgrams += up.d(f+"_io_datagrams_read") + up.d(f+"_io_datagrams_written")
	}
	set("udpio.dgrams_per_syscall", ratio(dgrams, calls), "count")

	engine, withRelay, withIO := ld.rungs[rungEngine], ld.rungs[rungRelay], ld.rungs[rungUDPIO]
	set("udpio.busy_us_per_op", withIO.perOp(udpioSpans...), "us")
	suiteUS := 0.0
	if engine.ops > 0 {
		suiteUS = float64(engine.suite[roleClient].busy+engine.suite[roleServer].busy) / 1e3 / float64(engine.ops)
	}
	set("core.busy_us_per_op", engine.perOp(coreSpans...)-suiteUS, "us")
	set("core.retransmits_per_op", up.perOp(up.d("alpha_client_endpoint_retransmits")+up.d("alpha_server_endpoint_retransmits")), "count")
	set("core.new_endpoint_ms", meanUS(engine.newEP)/1e3, "ms")
	set("relay.forward_us_per_dgram", withRelay.mean("relay.ProcessFrom.forward"), "us")
	set("relay.drop_us_per_dgram", withRelay.mean("relay.ProcessFrom.drop"), "us")
	listed := 0.0
	for _, r := range relayReasons {
		v := up.d("alpha_relay_drop_" + r)
		listed += v
		set("relay.drops_per_op."+r, up.perOp(v), "count")
	}
	set("relay.drops_per_op.other", up.perOp(up.d("alpha_relay_dropped")-listed), "count")

	set("udptransport.send_call_us", meanUS(tp.spans.total("udptransport.Send")), "us")
	set("udptransport.dispatch_p99_us", up.dispatchP99us, "us")
	set("udptransport.inbox_drops_per_op", up.perOp(up.d("alpha_transport_inbox_drops")), "count")
	set("udptransport.self_us_per_op", up.cpuPerOp()-withIO.perOp(ladderSpans...), "us")
	set("admission.mint_us", meanUS(tp.spans.total("admission.Mint")), "us")
	for _, r := range admissionReasons {
		set("admission.rejects_per_op."+r, up.perOp(up.d("alpha_admission_drop_admission_"+r)), "count")
	}
	opsPerSec := float64(up.opsInWindow) / up.window.Seconds()
	set("obs.spans_per_op", ratio(up.spansPerSec, opsPerSec), "count")
	set("obs.tracer_events_per_op", ratio(up.tracerPerSec, opsPerSec), "count")
	set("runtime.gc_cpu_share", ratio(up.u1.gcCPU-up.u0.gcCPU, up.u1.allCPU-up.u0.allCPU), "ratio")
	set("loadgen.lag_p99_ms", tail(up.lag, 99).Value, "ms")
	set("ladder.engine_us_per_op", engine.perOp(ladderSpans...), "us")
	set("ladder.relay_us_per_op", withRelay.perOp(ladderSpans...), "us")
	set("ladder.udpio_us_per_op", withIO.perOp(ladderSpans...), "us")

	ue, te := endToEnd(up), endToEnd(tp)
	set("trace.overhead.cpu_us_per_op", overhead(ue["cpu_us_per_op"].Value, te["cpu_us_per_op"].Value, false), "ratio")
	set("trace.overhead.goodput_msg_s", overhead(ue["goodput_msg_s"].Value, te["goodput_msg_s"].Value, true), "ratio")
	set("trace.overhead.latency_p50_ms", overhead(ue["latency_p50_ms"].Value, te["latency_p50_ms"].Value, false), "ratio")
	return m
}

func meanUS(a spanAgg) float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.busy) / 1e3 / float64(a.n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
