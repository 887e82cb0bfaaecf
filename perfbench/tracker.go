package main

import (
	"sort"
	"sync"
	"time"
)

// Per-operation states of a tracker.
const (
	opNone uint8 = iota
	opPending
	opDelivered
	opFailed
)

// notMeasuring is the phase of operations outside the measured window.
const notMeasuring = -1

// tracker accounts for every operation a workload attempts: it bounds how
// many are outstanding (the closed-loop window), resolves each one as
// delivered or failed, and keeps the latency of the operations attempted
// while measuring. An operation not delivered within deadline fails: its
// window slot comes back and its latency is the deadline, so a failure
// misses every latency limit below it.
//
// The measured window is cut into phases; each measured operation belongs
// to the phase it started in, and each delivery counts in the phase it
// happened in, so a workload can report per-phase figures.
//
// The per-operation books are allocated and made resident when the tracker
// is built, sized for the most operations the run can attempt, so the
// benchmark's own memory does not grow with the program's speed and
// peak_rss_mb moves only with the program's.
type tracker struct {
	mu       sync.Mutex
	slot     *sync.Cond
	limit    int // most operations outstanding at once; 0 is unbounded
	deadline time.Duration

	// Per operation, indexed by the operation's number.
	state []uint8
	phase []int8    // phase the operation was attempted in, or notMeasuring
	start []int64   // UnixNano the operation's clock started
	ms    []float32 // latency once resolved, milliseconds
	fifo  []int32   // pending operations in start order
	head  int

	outstanding int
	closed      bool
	cur         int // current phase, or notMeasuring

	// Counts over operations attempted while measuring.
	attempted int
	delivered int
	failed    int
	inPhase   []int // deliveries that happened during each phase

	// Counts over the whole run.
	duplicates int // deliveries of an already delivered operation
	late       int // deliveries of an operation that had already failed
}

// newTracker builds a tracker with resident room for capacity operations.
// More still work, but then the books grow while measuring.
func newTracker(limit int, deadline time.Duration, capacity int) *tracker {
	t := &tracker{limit: limit, deadline: deadline, cur: notMeasuring,
		state: resident[uint8](capacity), phase: resident[int8](capacity),
		start: resident[int64](capacity), ms: resident[float32](capacity),
		fifo: resident[int32](capacity), inPhase: make([]int, phases)}
	t.slot = sync.NewCond(&t.mu)
	return t
}

// resident returns an empty slice with room for n elements whose memory
// has been written once, so the pages are resident before measuring.
func resident[T any](n int) []T {
	s := make([]T, n)
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s[:0]
}

// acquire blocks until the window has room and reserves the next operation
// index, or returns false once the tracker is closed.
func (t *tracker) acquire() (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.limit > 0 && t.outstanding >= t.limit && !t.closed {
		t.slot.Wait()
	}
	if t.closed {
		return 0, false
	}
	t.outstanding++
	i := len(t.state)
	t.state = append(t.state, opNone)
	t.phase = append(t.phase, int8(t.cur))
	t.start = append(t.start, 0)
	t.ms = append(t.ms, 0)
	if t.cur != notMeasuring {
		t.attempted++
	}
	return i, true
}

// started starts operation i's clock at at; it is pending from then on.
func (t *tracker) started(i int, at time.Time) {
	t.mu.Lock()
	t.state[i] = opPending
	t.start[i] = at.UnixNano()
	t.fifo = append(t.fifo, int32(i))
	t.mu.Unlock()
}

// deliver resolves operation i as delivered at now. Only the delivery of a
// pending operation counts in its phase: a late delivery of a failed
// operation or a duplicate does not, so an operation counts as delivered or
// as failed, never both. It reports false for a delivery the tracker cannot
// accept: an index never issued or one already delivered.
func (t *tracker) deliver(i int, now time.Time) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i < 0 || i >= len(t.state) {
		return false
	}
	switch t.state[i] {
	case opPending:
		if t.cur != notMeasuring {
			t.inPhase[t.cur]++
		}
		t.state[i] = opDelivered
		t.resolve(i, float64(now.UnixNano()-t.start[i])/1e6, false)
		return true
	case opFailed:
		t.late++
		return true
	default:
		t.duplicates++
		return false
	}
}

// fail resolves operation i as failed now, whatever its deadline.
func (t *tracker) fail(i int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state[i] == opPending || t.state[i] == opNone {
		t.state[i] = opFailed
		t.resolve(i, float64(t.deadline)/1e6, true)
	}
}

// resolve releases operation i's window slot. Callers hold mu.
func (t *tracker) resolve(i int, ms float64, failed bool) {
	t.outstanding--
	t.slot.Signal()
	if t.phase[i] == notMeasuring {
		return
	}
	t.ms[i] = float32(ms)
	if failed {
		t.failed++
	} else {
		t.delivered++
	}
}

// expire fails every pending operation whose deadline has passed at now.
func (t *tracker) expire(now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cut := now.UnixNano() - int64(t.deadline)
	for t.head < len(t.fifo) {
		i := int(t.fifo[t.head])
		if t.state[i] == opPending {
			if t.start[i] > cut {
				break
			}
			t.state[i] = opFailed
			t.resolve(i, float64(t.deadline)/1e6, true)
		}
		t.head++
	}
}

// setPhase starts measured phase k (0 to phases-1) or, with notMeasuring,
// closes the measured window.
func (t *tracker) setPhase(k int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur = k
}

func (t *tracker) measuring() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur != notMeasuring
}

// close wakes every acquire and refuses new operations.
func (t *tracker) close() {
	t.mu.Lock()
	t.closed = true
	t.slot.Broadcast()
	t.mu.Unlock()
}

// unresolved counts measured operations not yet delivered or failed.
func (t *tracker) unresolved() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted - t.delivered - t.failed
}

// trackerResult is a tracker's measured books.
type trackerResult struct {
	attempted, delivered, failed int
	lat                          [][]float64 // per phase, sorted
	inPhase                      []int
}

func (t *tracker) result() trackerResult {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := trackerResult{attempted: t.attempted, delivered: t.delivered, failed: t.failed,
		inPhase: append([]int(nil), t.inPhase...), lat: make([][]float64, phases)}
	for i, st := range t.state {
		if p := t.phase[i]; p != notMeasuring && (st == opDelivered || st == opFailed) {
			r.lat[p] = append(r.lat[p], float64(t.ms[i]))
		}
	}
	for _, l := range r.lat {
		sort.Float64s(l)
	}
	return r
}
