// Command perfbench is the end-to-end ALPHA benchmark: it drives signed
// messages through the real stack (udptransport Conn -> verifying Relay ->
// Server, program defaults) over loopback UDP and reports what a user of
// the system sees. With -trace 1 it instead attributes each workload's
// cost to the repo's modules from outside, by timing calls into their
// public functions.
//
// Usage (from the repository root):
//
//	go run ./perfbench -workload bulk48|signal|bulk|churn -seed N -seconds S -trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything above it is a human
// report. See perfbench/NOTES.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

var workloads = map[string]workload{
	"bulk":   {name: "bulk", setup: setupStream(bulkSpec), ladder: streamLadder(bulkSpec)},
	"bulk48": {name: "bulk48", setup: setupStream(bulk48Spec), ladder: streamLadder(bulk48Spec)},
	"signal": {name: "signal", setup: setupStream(signalSpec), ladder: streamLadder(signalSpec)},
	"churn":  {name: "churn", setup: setupChurn, ladder: churnLadder},
}

// setupRepeats is how many times an untraced run sets up its stack; the
// median is setup_s, and the last stack is the one measured.
const setupRepeats = 5

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "bulk48, signal, bulk or churn")
		seed    = flag.Int64("seed", 1, "seed every input is derived from")
		seconds = flag.Int("seconds", 30, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 runs the traced, layer-attributed run")
		out     = flag.String("out", ".bench_build", "directory for span files and full results")
		root    = flag.String("root", ".", "repository root, for the code fingerprint")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: -workload must be one of %s, -seconds >= 1, -trace 0 or 1\n", strings.Join(names(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fp, err := fingerprint(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: fingerprint:", err)
		os.Exit(1)
	}
	window := time.Duration(*seconds) * time.Second
	base := filepath.Join(*out, fmt.Sprintf("perfbench-%s", w.name))
	var res result
	var report []string
	if *trace == 0 {
		res, report, err = untracedRun(w, *seed, window)
	} else {
		res, report, err = tracedRun(w, *seed, window, base)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	for _, l := range fp.lines() {
		fmt.Println("  " + l)
	}
	for _, l := range report {
		fmt.Println("  " + l)
	}
	full := map[string]any{"workload": w.name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"host": fp, "result": res, "report": report}
	if b, err := json.MarshalIndent(full, "", "  "); err == nil {
		if err := os.WriteFile(fmt.Sprintf("%s-trace%d.json", base, *trace), b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing full result:", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func names() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// runPass sets up the workload repeats times, measures the last stack for
// window and tears it down. setupS is the median set-up time.
func runPass(w workload, p *passConfig, repeats int) (*passResult, error) {
	var times []float64
	var l live
	for k := 0; k < repeats; k++ {
		if l != nil {
			l.close()
			// Hand the torn-down stack's memory back, so the peak resident
			// size holds one stack's, not several.
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if l, err = w.setup(p); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	r := l.measure(p.window)
	l.close()
	r.setupS = median(times)
	r.spans = p.spans
	return r, nil
}

// untracedRun measures the end-to-end metrics with tracing off.
func untracedRun(w workload, seed int64, window time.Duration) (result, []string, error) {
	r, err := runPass(w, &passConfig{gen: NewGen(seed), window: window}, setupRepeats)
	if err != nil {
		return result{}, nil, err
	}
	m := endToEnd(r)
	res := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, n := range endToEndNames {
		res.Metrics[n] = m[n]
	}
	report := describe(w, r, m)
	return res, report, nil
}

// tracedRun measures an untraced and a traced pass of a third of the
// window each on the same seed, then the engine ladder for the last third,
// and reports the per-layer metrics and the overhead of tracing.
func tracedRun(w workload, seed int64, window time.Duration, base string) (result, []string, error) {
	third := window / 3
	up, err := runPass(w, &passConfig{gen: NewGen(seed), window: third}, 1)
	if err != nil {
		return result{}, nil, err
	}
	tp := &passConfig{gen: NewGen(seed), window: third, spans: newSpanLog(1 << 17), spansPath: base}
	trp, err := runPass(w, tp, 1)
	if err != nil {
		return result{}, nil, err
	}
	if err := tp.spans.write(base + ".spans.tsv"); err != nil {
		return result{}, nil, err
	}
	ld, err := w.ladder(tp, third)
	if err != nil {
		return result{}, nil, err
	}
	m := perLayer(up, trp, ld)
	problems := append(append(append([]string(nil), up.problems...), trp.problems...), ld.problems...)
	res := result{Correct: len(problems) == 0, Attempted: trp.attempted, Failed: trp.failed, Metrics: map[string]metric{}}
	for _, n := range perLayerNames {
		res.Metrics[n] = m[n]
	}
	report := []string{"untraced pass:"}
	report = append(report, describe(w, up, endToEnd(up))...)
	report = append(report, "traced pass:")
	report = append(report, describe(w, trp, endToEnd(trp))...)
	report = append(report, "per-layer:")
	for _, n := range perLayerNames {
		report = append(report, fmt.Sprintf("  %-44s %14.4f %s", n, m[n].Value, m[n].Unit))
	}
	for _, p := range ld.problems {
		report = append(report, "CHECK FAILED: "+p)
	}
	return res, report, nil
}
