package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"alpha/internal/suite"
)

// timedSuite counts every call into a hash suite and times a sample of
// them. It is the Table 1 counting-suite pattern with a clock added,
// installed through core.Config.Suite and relay.Config.SuiteOverride.
// Timing every call would double the cost of the short chain hashes, so
// one call in sampleEvery is timed, picked by a hash of the call number so
// the sample cannot lock onto the period of a batch, and busy time is
// scaled up accordingly. Safe for concurrent use: the server's workers
// share one.
type timedSuite struct {
	inner  suite.Suite
	calls  atomic.Uint64
	hashes atomic.Uint64
	macs   atomic.Uint64
	busyNS atomic.Int64
}

const sampleEvery = 8

// sampled reports whether call n is one of the timed ones.
func sampled(n uint64) bool { return (n*0x9e3779b97f4a7c15)>>61 == 0 }

func newTimedSuite(inner suite.Suite) *timedSuite { return &timedSuite{inner: inner} }

func (s *timedSuite) ID() suite.ID { return s.inner.ID() }
func (s *timedSuite) Name() string { return s.inner.Name() + "+timed" }
func (s *timedSuite) Size() int    { return s.inner.Size() }

func (s *timedSuite) Hash(parts ...[]byte) []byte {
	s.hashes.Add(1)
	if !sampled(s.calls.Add(1)) {
		return s.inner.Hash(parts...)
	}
	t0 := time.Now()
	out := s.inner.Hash(parts...)
	s.busyNS.Add(int64(time.Since(t0)) * sampleEvery)
	return out
}

func (s *timedSuite) HashInto(dst []byte, parts ...[]byte) []byte {
	s.hashes.Add(1)
	if !sampled(s.calls.Add(1)) {
		return s.inner.HashInto(dst, parts...)
	}
	t0 := time.Now()
	out := s.inner.HashInto(dst, parts...)
	s.busyNS.Add(int64(time.Since(t0)) * sampleEvery)
	return out
}

func (s *timedSuite) MAC(key []byte, msg ...[]byte) []byte {
	s.macs.Add(1)
	if !sampled(s.calls.Add(1)) {
		return s.inner.MAC(key, msg...)
	}
	t0 := time.Now()
	out := s.inner.MAC(key, msg...)
	s.busyNS.Add(int64(time.Since(t0)) * sampleEvery)
	return out
}

func (s *timedSuite) MACInto(dst, key []byte, msg ...[]byte) []byte {
	s.macs.Add(1)
	if !sampled(s.calls.Add(1)) {
		return s.inner.MACInto(dst, key, msg...)
	}
	t0 := time.Now()
	out := s.inner.MACInto(dst, key, msg...)
	s.busyNS.Add(int64(time.Since(t0)) * sampleEvery)
	return out
}

// suiteCounts is a point-in-time reading of a timedSuite.
type suiteCounts struct {
	hashes, macs uint64
	busy         time.Duration
}

func (s *timedSuite) read() suiteCounts {
	if s == nil {
		return suiteCounts{}
	}
	return suiteCounts{s.hashes.Load(), s.macs.Load(), time.Duration(s.busyNS.Load())}
}

func (a suiteCounts) sub(b suiteCounts) suiteCounts {
	return suiteCounts{a.hashes - b.hashes, a.macs - b.macs, a.busy - b.busy}
}

// span is one timed call from the benchmark into a layer. Spans of one
// message or association share id; a span that caused another contains it
// in time (admission.Mint runs inside udptransport.Dial).
type span struct {
	name       string
	id         uint64
	start, end int64 // UnixNano
}

// spanAgg sums the spans of one name.
type spanAgg struct {
	n    int
	busy time.Duration
}

// spanLog keeps spans in memory and writes them out when the run ends.
// Beyond its capacity it keeps aggregating per name but stops retaining
// individual spans, so memory stays bounded however long a run is. A nil
// *spanLog records nothing, which is how untraced runs pay nothing.
type spanLog struct {
	mu      sync.Mutex
	spans   []span
	dropped int
	agg     map[string]*spanAgg
}

func newSpanLog(capacity int) *spanLog {
	return &spanLog{spans: make([]span, 0, capacity), agg: map[string]*spanAgg{}}
}

// add records a finished span.
func (l *spanLog) add(name string, id uint64, start, end time.Time) {
	if l == nil {
		return
	}
	d := end.Sub(start)
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.agg[name]
	if a == nil {
		a = &spanAgg{}
		l.agg[name] = a
	}
	a.n++
	a.busy += d
	if len(l.spans) == cap(l.spans) {
		l.dropped++
		return
	}
	l.spans = append(l.spans, span{name, id, start.UnixNano(), end.UnixNano()})
}

// total returns the aggregate of one span name.
func (l *spanLog) total(name string) spanAgg {
	if l == nil {
		return spanAgg{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if a := l.agg[name]; a != nil {
		return *a
	}
	return spanAgg{}
}

// reset drops every span and aggregate, e.g. at the end of warm-up.
func (l *spanLog) reset() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = l.spans[:0]
	l.dropped = 0
	l.agg = map[string]*spanAgg{}
	l.mu.Unlock()
}

// write stores the retained spans as tab-separated lines: name, id, start
// and end in nanoseconds since the first span.
func (l *spanLog) write(path string) error {
	if l == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# name\tid\tstart_ns\tend_ns (spans beyond capacity, aggregated only: %d)\n", l.dropped)
	var base int64
	if len(l.spans) > 0 {
		base = l.spans[0].start
	}
	for _, s := range l.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\n", s.name, s.id, s.start-base, s.end-base)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
