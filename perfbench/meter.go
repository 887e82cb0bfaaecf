package main

import (
	"runtime/metrics"
	"syscall"
	"time"

	"alpha/internal/obs"
	"alpha/internal/telemetry"
)

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	at     time.Time
	cpu    time.Duration // user + system, from getrusage
	allocs uint64        // heap objects allocated since start
	gcCPU  float64       // runtime estimate of GC CPU seconds
	allCPU float64       // runtime estimate of all CPU seconds
}

var usageSamples = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(usageSamples))
	for i, n := range usageSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	u := usage{at: time.Now(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
	if s[0].Value.Kind() == metrics.KindUint64 {
		u.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		u.allCPU = s[2].Value.Float64()
	}
	return u
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// snapshot is a reading of every program metric group registered on an
// exporter, taken through obs.Collect, the path the invariant checker uses.
type snapshot struct {
	vals     obs.MetricSnapshot
	counters map[string]bool
}

func collect(exp *telemetry.Exporter) (snapshot, error) {
	v, c, err := obs.Collect(exp)
	return snapshot{v, c}, err
}

// delta is after minus before for one sample (0 when it went backwards,
// which the monotonicity check reports separately).
func delta(before, after snapshot, name string) float64 {
	a, b := after.vals[name], before.vals[name]
	if a < b {
		return 0
	}
	return float64(a - b)
}

// checkInvariants applies the program's own observability invariants: I3
// and I4 to the final snapshot, I1 between the two.
func checkInvariants(before, after snapshot) []string {
	var out []string
	for _, v := range (obs.Invariants{}).Check(after.vals) {
		out = append(out, v.String())
	}
	for _, v := range obs.Monotonic(before.vals, after.vals, after.counters) {
		out = append(out, v.String())
	}
	return out
}

// histP returns the upper bound, in the histogram's unit, of the bucket
// holding percentile p of the observations made between two snapshots of
// one histogram; observations past the last bound report that bound.
func histP(before, after telemetry.HistogramSnapshot, p float64) float64 {
	total := after.Count - before.Count
	if total == 0 {
		return 0
	}
	want := uint64(rank(p, int(total)))
	var seen uint64
	for i, c := range after.Counts {
		seen += c - before.Counts[i]
		if seen >= want && i < len(after.Bounds) {
			return float64(after.Bounds[i])
		}
	}
	return float64(after.Bounds[len(after.Bounds)-1])
}
