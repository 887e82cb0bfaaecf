// Multi-association server: one socket (or a SO_REUSEPORT group), many
// peers.
//
// A Conn serves exactly one association. Real responders — sinks, home
// agents, middleback-ends — accept many initiators on one port. Server owns
// the socket read loops and demultiplexes by the association ID every
// ALPHA packet carries, spawning a Session per handshake and routing
// subsequent traffic to it.
//
// The session core is built for millions of associations on one box:
//
//   - Generation-rotated routing maps. Each shard holds a current and a
//     previous map; a rotation demotes current to previous and starts a
//     fresh current, so every lookup promotes its hit back into the
//     current generation and whatever is still sitting in the previous
//     map after a full interval is idle by construction. Expiry is
//     therefore a pointer swap plus a fold of the (few) idle sessions —
//     never a scan over the live table.
//
//   - Worker-pool dispatch. Sessions hold no goroutines. A bounded pool
//     of workers (GOMAXPROCS by default) drains per-worker intrusive run
//     queues of sessions with pending work; an atomic ownership token per
//     session guarantees no two workers ever run the same association
//     concurrently, which preserves the engine's single-threaded contract
//     while letting any worker pick up any (unowned) session. Protocol
//     timers collapse into one deadline heap driven by a single timer
//     goroutine; an idle association costs two small maps' worth of
//     entries and its buffers — no stacks, no timers.
//
//   - Stateless prefilter (opt-in, IOOptions.Prefilter). Before any map
//     lookup the dispatcher checks the fixed header's magic/version/type
//     bytes and the address-bound filter cookie (packet.Prefilter), so
//     junk floods are rejected in a handful of cycles and counted under
//     drop_prefilter without touching a shard lock or the engine.
//
// The read loops are batched: each drains up to a full burst of datagrams
// from its socket in one recvmmsg into a slab of pooled buffers before
// demuxing. Buffers are recycled once the engine has consumed them: the
// decoded fields alias the datagram, but Handle copies whatever it keeps
// before returning, so a buffer is dead the moment Handle returns. Session
// replies leave through a coalescing writer, pumped once per inbox drain
// rather than once per datagram: everything the drain and its one Poll
// produce (the S2s of a burst plus its S1, or the A2s answering a run of
// S2s) goes out in one WriteBatch — on Linux one sendmmsg whose equal-size
// runs the offload engine packs into single GSO sends.

package udptransport

import (
	"container/heap"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"alpha/internal/admission"
	"alpha/internal/core"
	"alpha/internal/obs"
	"alpha/internal/packet"
	"alpha/internal/telemetry"
	"alpha/internal/udpio"
)

// sessionShards splits the association routing table so lookups from the
// read loops do not contend with session creation and removal on one lock.
// Power of two; association IDs are random, so low bits spread evenly.
const sessionShards = 16

// inboxSize is the default bound on each session's pending-datagram queue.
// When the session's owner falls behind, the dispatcher drops for that
// session only — the same semantics the network already imposes on UDP.
const inboxSize = 64

// defaultEventBuffer is the default capacity of a session's event channel.
const defaultEventBuffer = 256

// defaultAcceptBacklog bounds the established-but-unaccepted session list
// unless ServerOptions says otherwise.
const defaultAcceptBacklog = 4096

// bufPool recycles datagram read buffers across the read loops and session
// workers.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, packet.MaxPacketSize)
		return &b
	},
}

// datagram is one received packet en route to a session worker. buf is the
// pooled backing array; n is the valid prefix; via is the socket engine it
// arrived on, which the session adopts for replies.
type datagram struct {
	now  time.Time
	from net.Addr
	via  udpio.Conn
	buf  *[]byte
	n    int
}

// sessionShard is one slice of the generation-rotated routing table. cur
// holds associations seen since the last rotation; old holds the previous
// generation. Lookups check cur then old, promoting old hits; a rotation
// swaps cur into old and retires whatever was still in old.
type sessionShard struct {
	mu  sync.Mutex
	cur map[uint64]*Session
	old map[uint64]*Session
}

// lookup finds a session in either generation, promoting old-generation
// hits into the current one so the next rotation sees them as live.
func (sh *sessionShard) lookup(assoc uint64) (*Session, bool) {
	sh.mu.Lock()
	sess, ok := sh.cur[assoc]
	if !ok {
		if sess, ok = sh.old[assoc]; ok {
			delete(sh.old, assoc)
			sh.cur[assoc] = sess
		}
	}
	sh.mu.Unlock()
	return sess, ok
}

// worker is one run queue of the dispatch pool: an intrusive FIFO of
// sessions holding the ownership token, plus a wake signal. The queue is
// unbounded but can never exceed the session count — the token admits each
// session at most once.
type worker struct {
	mu         sync.Mutex
	head, tail *Session
	wake       chan struct{} // cap 1
}

// ServerOptions sizes the session core. The zero value reproduces the
// defaults of NewServer.
type ServerOptions struct {
	// IO selects and sizes the datagram I/O engine (including the
	// stateless prefilter switch).
	IO IOOptions
	// Workers bounds the dispatch pool; 0 means GOMAXPROCS.
	Workers int
	// RotateInterval is the generation-rotation period: an association
	// idle for two full intervals is retired. 0 disables rotation (no
	// expiry, the historical behavior); Rotate can still be called
	// manually.
	RotateInterval time.Duration
	// AcceptBacklog caps the established-but-unaccepted session list. 0
	// means the default (4096); negative means unbounded. When the
	// backlog is full a newly established session is dropped and counted
	// under drop_accept_backlog.
	AcceptBacklog int
	// EventBuffer is the per-session event channel capacity; 0 means 256.
	// Million-association deployments that never read per-session events
	// shrink this to single digits.
	EventBuffer int
	// InboxSize is the per-session pending-datagram queue bound; 0 means
	// 64.
	InboxSize int
	// Admission, when set, gates session creation behind the stateless
	// connect-token tier (internal/admission): a session-creating HS1 must
	// pass Verifier.Admit before any endpoint state is allocated. HS1
	// retransmits into an existing session bypass the verifier, so the
	// replay filter never penalizes a legitimate retry. Nil disables the
	// stage.
	Admission *admission.Verifier
}

func (o ServerOptions) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

func (o ServerOptions) acceptBacklog() int {
	switch {
	case o.AcceptBacklog == 0:
		return defaultAcceptBacklog
	case o.AcceptBacklog < 0:
		return 0 // unbounded
	default:
		return o.AcceptBacklog
	}
}

func (o ServerOptions) eventBuffer() int {
	if o.EventBuffer <= 0 {
		return defaultEventBuffer
	}
	return o.EventBuffer
}

func (o ServerOptions) inboxSize() int {
	if o.InboxSize <= 0 {
		return inboxSize
	}
	return o.InboxSize
}

// Server accepts ALPHA associations on a shared datagram socket, or on a
// group of SO_REUSEPORT sockets each with its own read loop.
type Server struct {
	pcs       []net.PacketConn
	ios       []udpio.Conn
	cfg       core.Config
	opts      ServerOptions
	io        IOOptions
	downgrade string // from the first socket; sockets are siblings

	shards [sessionShards]sessionShard

	// Dispatch pool: per-worker run queues plus the shared deadline heap
	// replacing per-session timer goroutines.
	workers   []worker
	timerMu   sync.Mutex
	theap     timerHeap
	timerKick chan struct{} // cap 1; armTimer signals a new earliest deadline

	// Generation rotation state: lastRotate is the previous rotation's
	// timestamp (UnixNano), the idle cutoff for the generation retired by
	// the next one. rotateMu serializes rotations.
	rotateMu   sync.Mutex
	lastRotate int64

	// Outgoing filter-cookie binding (what the peer's prefilter checks
	// against): the concrete local IP when the socket has one, else
	// port-only.
	stampIP   []byte
	stampPort int

	// Established-but-unaccepted sessions, capped at acceptCap entries
	// (0 = unbounded). A list rather than a bounded channel so Accept
	// never waits for a session that was dropped at announce time: the
	// cap is enforced — and counted — at the moment of establishment.
	acceptMu  sync.Mutex
	pending   []*Session
	acceptCh  chan struct{} // signals a new pending entry; cap 1
	acceptCap int

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// tel counts transport activity (including the I/O engine's batch
	// accounting); tracer (from cfg.Tracer) records session lifecycle and
	// drop events. retired accumulates the endpoint metrics of removed
	// sessions so server-wide aggregates never shrink when an association
	// ends (see EndpointTelemetry).
	tel     telemetry.TransportMetrics
	tracer  *telemetry.Tracer
	retired telemetry.EndpointMetrics

	// flight, when set, hands each session a pooled per-association span
	// ring and receives anomaly triggers (chain-low, verify failures via
	// the ring's own drop hook). Nil disables recording at zero cost.
	flight *obs.Recorder
}

// NewServer starts serving on one socket with default I/O options. Each
// arriving handshake creates a responder endpoint with the given config;
// established sessions surface via Accept.
func NewServer(pc net.PacketConn, cfg core.Config) *Server {
	return NewServerOpts(cfg, IOOptions{}, pc)
}

// NewServerOpts starts serving across one or more sockets — typically a
// SO_REUSEPORT group — with one batched read loop per socket.
func NewServerOpts(cfg core.Config, opts IOOptions, pcs ...net.PacketConn) *Server {
	return NewServerWith(cfg, ServerOptions{IO: opts}, pcs...)
}

// NewServerWith starts serving with full control over the session core:
// worker-pool size, generation-rotation interval, accept backlog and
// per-session buffer sizing.
func NewServerWith(cfg core.Config, opts ServerOptions, pcs ...net.PacketConn) *Server {
	s := &Server{
		pcs:       pcs,
		cfg:       cfg,
		opts:      opts,
		io:        opts.IO,
		acceptCh:  make(chan struct{}, 1),
		acceptCap: opts.acceptBacklog(),
		timerKick: make(chan struct{}, 1),
		closed:    make(chan struct{}),
		tracer:    cfg.Tracer,
	}
	s.tel.Init()
	s.retired.Init()
	for i := range s.shards {
		s.shards[i].cur = make(map[uint64]*Session)
		s.shards[i].old = make(map[uint64]*Session)
	}
	s.ios = make([]udpio.Conn, len(pcs))
	for i, pc := range pcs {
		s.ios[i] = opts.IO.wrap(pc, &s.tel.IO)
	}
	if len(pcs) > 0 {
		s.downgrade = opts.IO.downgradeWarning(s.ios[0])
		s.stampIP, s.stampPort = addrIPPort(pcs[0].LocalAddr())
	}
	s.lastRotate = time.Now().UnixNano()
	s.workers = make([]worker, opts.workers())
	s.tel.Workers.Set(int64(len(s.workers)))
	for i := range s.workers {
		s.workers[i].wake = make(chan struct{}, 1)
		s.wg.Add(1)
		go s.workerLoop(&s.workers[i])
	}
	s.wg.Add(1)
	go s.timerLoop()
	if opts.RotateInterval > 0 {
		s.wg.Add(1)
		go s.rotateLoop(opts.RotateInterval)
	}
	for _, io := range s.ios {
		s.wg.Add(1)
		go s.readLoop(io)
	}
	return s
}

// NewReusePortServer binds loops SO_REUSEPORT sockets to addr and serves a
// read loop per socket, letting the kernel shard inbound flows across
// them. loops <= 0 means GOMAXPROCS. Linux-only; elsewhere it returns the
// udpio error and the caller falls back to a single-socket NewServer.
func NewReusePortServer(network, addr string, loops int, cfg core.Config, opts IOOptions) (*Server, error) {
	return NewReusePortServerWith(network, addr, loops, cfg, ServerOptions{IO: opts})
}

// NewReusePortServerWith is NewReusePortServer with full session-core
// options.
func NewReusePortServerWith(network, addr string, loops int, cfg core.Config, opts ServerOptions) (*Server, error) {
	if loops <= 0 {
		loops = runtime.GOMAXPROCS(0)
	}
	pcs, err := udpio.ListenReusePort(network, addr, loops)
	if err != nil {
		return nil, err
	}
	return NewServerWith(cfg, opts, pcs...), nil
}

// SetFlightRecorder installs a flight recorder: every session created
// afterwards records its spans into rc's per-association ring, retired
// back to the pool when the session is removed. Call before serving
// traffic; existing sessions are unaffected.
func (s *Server) SetFlightRecorder(rc *obs.Recorder) {
	s.flight = rc
	if adm := s.opts.Admission; adm != nil && rc != nil {
		// Admission storms predate any association, so they land in the
		// shared ring (association 0).
		adm.SetOnStorm(func(uint64) { rc.Trigger(0, obs.CauseAdmissionStorm) })
	}
}

// Accept blocks until the next association establishes (or the server
// closes).
func (s *Server) Accept() (*Session, error) {
	for {
		s.acceptMu.Lock()
		if len(s.pending) > 0 {
			sess := s.pending[0]
			s.pending = s.pending[1:]
			s.acceptMu.Unlock()
			s.tel.Accepted.Inc()
			return sess, nil
		}
		s.acceptMu.Unlock()
		select {
		case <-s.acceptCh:
		case <-s.closed:
			return nil, ErrServerClosed
		}
	}
}

// announce queues an established session for Accept, or reports false when
// the backlog cap is reached (the caller retires the session).
func (s *Server) announce(sess *Session) bool {
	s.acceptMu.Lock()
	if s.acceptCap > 0 && len(s.pending) >= s.acceptCap {
		s.acceptMu.Unlock()
		s.tel.AcceptBacklogDrops.Inc()
		s.tracer.Trace(time.Now().UnixNano(), telemetry.TraceDrop, sess.assoc, 0, telemetry.ReasonAcceptBacklog)
		if s.flight != nil {
			s.flight.Trigger(sess.assoc, obs.CausePoolSaturation)
		}
		return false
	}
	s.pending = append(s.pending, sess)
	s.acceptMu.Unlock()
	select {
	case s.acceptCh <- struct{}{}:
	default: // a signal is already pending; Accept re-scans the list
	}
	return true
}

// Sessions returns the current session count across both generations.
func (s *Server) Sessions() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.cur) + len(sh.old)
		sh.mu.Unlock()
	}
	return n
}

// LocalAddr returns the address of the server's (first) socket.
func (s *Server) LocalAddr() net.Addr { return s.pcs[0].LocalAddr() }

// DowngradeWarning is the one log line to print when the kernel refused
// the default engine's offload probe on the server's sockets, "" when
// nothing was lost.
func (s *Server) DowngradeWarning() string { return s.downgrade }

// shutdownSockets closes every socket; run under closeOnce from Close or a
// failing read loop.
func (s *Server) shutdownSockets() {
	close(s.closed)
	for _, pc := range s.pcs {
		pc.Close()
	}
}

// Close stops the server, its sockets, and every session.
func (s *Server) Close() error {
	s.closeOnce.Do(s.shutdownSockets)
	s.wg.Wait()
	return nil
}

func (s *Server) shard(assoc uint64) *sessionShard {
	return &s.shards[assoc%sessionShards]
}

// readLoop drains one socket in bursts. Each recvmmsg fills a slab of
// pooled buffers; consumed slots are replaced from the pool before the next
// call, so buffer ownership moves to the session workers datagram by
// datagram.
func (s *Server) readLoop(io udpio.Conn) {
	defer s.wg.Done()
	batch := s.io.batch()
	ms := make([]udpio.Message, batch)
	bps := make([]*[]byte, batch)
	for i := range ms {
		bps[i] = bufPool.Get().(*[]byte)
		ms[i].Buf = *bps[i]
	}
	defer func() {
		for _, bp := range bps {
			bufPool.Put(bp)
		}
	}()
	for {
		n, err := io.ReadBatch(ms)
		if err != nil {
			s.closeOnce.Do(s.shutdownSockets)
			// Stop all session timers (idempotent; every failing read
			// loop may run this). Workers exit via s.closed.
			for i := range s.shards {
				sh := &s.shards[i]
				sh.mu.Lock()
				for _, sess := range sh.cur {
					sess.stop()
				}
				for _, sess := range sh.old {
					sess.stop()
				}
				sh.mu.Unlock()
			}
			return
		}
		now := time.Now()
		for i := 0; i < n; i++ {
			s.dispatch(now, io, ms[i].Addr, bps[i], ms[i].N)
			bps[i] = bufPool.Get().(*[]byte)
			ms[i].Buf = *bps[i]
		}
	}
}

// dispatch classifies one datagram and hands it to its session's inbox,
// creating the session for a fresh handshake and queueing the session on a
// worker. Ownership of bp transfers to the session (or back to the pool on
// a drop). Every drop that used to be a silent `continue` is counted here;
// split from readLoop so tests can drive it directly.
//
//alpha:hotpath
func (s *Server) dispatch(now time.Time, via udpio.Conn, from net.Addr, bp *[]byte, n int) {
	s.tel.Datagrams.Inc()
	s.tel.Bytes.Add(uint64(n))
	if n < packet.HeaderSize {
		s.tel.ShortDatagrams.Inc()
		bufPool.Put(bp)
		return
	}
	data := (*bp)[:n]
	if s.io.Prefilter {
		// Stateless junk rejection before any shard lock or map lookup:
		// structural header checks plus the address-bound cookie.
		ip, port := addrIPPort(from)
		if !packet.Prefilter(data, ip, port) {
			s.tel.PrefilterDrops.Inc()
			s.tracer.Trace(now.UnixNano(), telemetry.TraceDrop, 0, 0, telemetry.ReasonPrefilter)
			bufPool.Put(bp)
			return
		}
	}
	assoc := binary.BigEndian.Uint64(data[6:14])
	typ := packet.Type(data[3])

	sh := s.shard(assoc)
	sess, known := sh.lookup(assoc)
	if !known {
		if typ != packet.TypeHS1 {
			s.tel.UnknownAssocDrops.Inc()
			s.tracer.Trace(now.UnixNano(), telemetry.TraceDrop, assoc, 0, telemetry.ReasonUnknownAssoc)
			bufPool.Put(bp)
			return // data for an association we do not hold
		}
		// Stateless admission: a session-creating HS1 must clear the
		// connect-token tier before the allocating branch below runs. The
		// verifier owns the drop accounting (alpha_admission family), so
		// rejects cost one decrypt and zero allocations here.
		var admitted admission.Verdict
		var view packet.HS1View
		if adm := s.opts.Admission; adm != nil {
			var vok bool
			if view, vok = packet.ParseHS1View(data); !vok {
				admitted = adm.RejectMalformed()
			} else {
				ip, port := addrIPPort(from)
				admitted = adm.Admit(now, view.Token, ip, port, view.SigAnchor, view.AckAnchor)
			}
			if !admitted.OK {
				s.tracer.Trace(now.UnixNano(), telemetry.TraceDrop, assoc, 0, admitted.Reason)
				bufPool.Put(bp)
				return //alpha:drop-ok the admission verifier counted the refusal
			}
		}
		var ok bool
		if sess, ok = s.createSession(now, sh, assoc, from, via); !ok { //alpha:alloc-ok session birth is the cold path: one endpoint allocation per association lifetime
			bufPool.Put(bp)
			return
		}
		if admitted.AnchorsBound {
			// The token vouched for these exact anchors; let the endpoint
			// skip the §3.4 signature verification when it parses the HS1.
			sess.mu.Lock()
			sess.ep.PreAdmit(view.SigAnchor, view.AckAnchor)
			sess.mu.Unlock()
		}
	}
	sess.lastActive.Store(now.UnixNano())

	// Bounded hand-off: a full inbox means this session's owner is
	// behind, and the datagram is dropped as the network would drop
	// it. The single drainer (ownership token) preserves per-session
	// arrival order.
	select {
	case sess.inbox <- datagram{now: now, from: from, via: via, buf: bp, n: n}:
		s.schedule(sess)
	default:
		s.tel.InboxDrops.Inc()
		s.tracer.Trace(now.UnixNano(), telemetry.TraceInboxDrop, assoc, 0, telemetry.ReasonInboxFull)
		bufPool.Put(bp)
	}
}

// createSession spawns the responder endpoint and routing-table entry for
// a fresh handshake — the one allocating branch of the dispatch path.
func (s *Server) createSession(now time.Time, sh *sessionShard, assoc uint64, from net.Addr, via udpio.Conn) (*Session, bool) {
	ep, err := core.NewEndpoint(s.cfg)
	if err != nil {
		s.tel.EndpointFailures.Inc()
		s.tracer.Trace(now.UnixNano(), telemetry.TraceDrop, assoc, 0, telemetry.ReasonBadHandshake)
		return nil, false
	}
	if s.flight != nil {
		ep.SetSpans(s.flight.Ring(assoc))
	}
	sess := newSession(s, ep, assoc, from, via)
	sh.mu.Lock()
	if racing, ok := sh.cur[assoc]; ok {
		// Another read loop created the session between our lookup and
		// now; adopt theirs and discard ours.
		sh.mu.Unlock()
		return racing, true
	}
	sh.cur[assoc] = sess
	sh.mu.Unlock()
	s.tel.SessionsCreated.Inc()
	s.tel.ActiveSessions.Inc()
	s.tracer.Trace(now.UnixNano(), telemetry.TraceSessionStart, assoc, 0, 0)
	return sess, true
}

// schedule queues a session on its worker if no one owns it yet. The
// ownership token (scheduled) admits a session into exactly one run queue
// at a time, so no two workers ever run the same association concurrently.
//
//alpha:hotpath
func (s *Server) schedule(sess *Session) {
	if !sess.scheduled.CompareAndSwap(false, true) {
		return // already queued or running; the owner re-checks on exit
	}
	w := sess.wkr
	w.mu.Lock()
	if w.tail == nil {
		w.head = sess
	} else {
		w.tail.next = sess
	}
	w.tail = sess
	w.mu.Unlock()
	s.tel.RunQueueDepth.Inc()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// workerLoop drains one run queue: pop a session, run its pending work,
// repeat; sleep on the wake channel when the queue is empty. The pop and
// the sleep re-check make lost wakeups impossible: schedule always either
// finds the queue non-empty on our next scan or lands a wake signal.
func (s *Server) workerLoop(w *worker) {
	defer s.wg.Done()
	for {
		w.mu.Lock()
		sess := w.head
		if sess != nil {
			w.head = sess.next
			if w.head == nil {
				w.tail = nil
			}
			sess.next = nil
		}
		w.mu.Unlock()
		if sess == nil {
			select {
			case <-w.wake:
				continue
			case <-s.closed:
				return
			}
		}
		s.tel.RunQueueDepth.Dec()
		s.runSession(sess)
	}
}

// runSession performs one owned turn for a session: a due timer pump, a
// bounded drain of the inbox, and then one pump for everything the drain
// produced. Pumping once per drain rather than once per datagram is what
// lets the replies to a burst — the A2s answering an ALPHA-M exchange's
// S2s — leave as one WriteBatch, which the offload engine turns into one
// GSO run. The ownership token is released before the final emptiness
// re-check, so a dispatcher that raced our drain either sees the token free
// (and schedules) or we see its datagram (and reschedule ourselves) — work
// is never stranded.
func (s *Server) runSession(sess *Session) {
	if sess.stopped() {
		// Retired session still queued: release the token and let the
		// inbox drain to the GC with the channel (matching Close).
		sess.scheduled.Store(false)
		return
	}
	if sess.pumpDue.Swap(false) {
		now := time.Now()
		sess.mu.Lock()
		sess.pumpLocked(now)
		sess.mu.Unlock()
	}
	budget := cap(sess.inbox)
	var last time.Time
drain:
	for i := 0; i < budget; i++ {
		select {
		case d := <-sess.inbox:
			sess.handle(d.now, d.from, d.via, (*d.buf)[:d.n], s)
			s.tel.DispatchLatency.Observe(time.Since(d.now).Nanoseconds())
			bufPool.Put(d.buf)
			last = d.now
		default:
			break drain
		}
	}
	// A session retired inside handle (accept backlog full) sends nothing.
	if !last.IsZero() && !sess.stopped() {
		sess.mu.Lock()
		sess.pumpLocked(last)
		sess.mu.Unlock()
	}
	sess.scheduled.Store(false)
	if len(sess.inbox) > 0 || sess.pumpDue.Load() {
		s.schedule(sess)
	}
}

// timerHeap is the deadline min-heap replacing per-session timer
// goroutines; guarded by Server.timerMu.
type timerHeap []*Session

func (h timerHeap) Len() int           { return len(h) }
func (h timerHeap) Less(i, j int) bool { return h[i].deadline.Before(h[j].deadline) }
func (h timerHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].heapIdx = i; h[j].heapIdx = j }
func (h *timerHeap) Push(x any)        { s := x.(*Session); s.heapIdx = len(*h); *h = append(*h, s) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	s.heapIdx = -1
	*h = old[:n-1]
	return s
}

// armTimer (re)registers a session's next engine deadline on the shared
// heap, or removes it when the engine reports none — an idle association
// costs the timer goroutine nothing.
func (s *Server) armTimer(sess *Session, at time.Time, ok bool) {
	s.timerMu.Lock()
	switch {
	case !ok:
		if sess.heapIdx >= 0 {
			heap.Remove(&s.theap, sess.heapIdx)
		}
	case sess.heapIdx >= 0:
		if !sess.deadline.Equal(at) {
			sess.deadline = at
			heap.Fix(&s.theap, sess.heapIdx)
		}
	default:
		sess.deadline = at
		heap.Push(&s.theap, sess)
	}
	kick := len(s.theap) > 0 && s.theap[0] == sess
	s.timerMu.Unlock()
	if kick {
		select {
		case s.timerKick <- struct{}{}:
		default:
		}
	}
}

// timerLoop drives every session's engine deadlines off one heap: sleep
// until the earliest deadline (or a kick that a new earliest arrived), pop
// everything due, and queue the affected sessions for a pump on their
// workers.
func (s *Server) timerLoop() {
	defer s.wg.Done()
	const idleWait = time.Hour
	timer := time.NewTimer(idleWait)
	defer timer.Stop()
	var due []*Session
	for {
		s.timerMu.Lock()
		d := idleWait
		if len(s.theap) > 0 {
			d = time.Until(s.theap[0].deadline)
		}
		s.timerMu.Unlock()
		if d < 0 {
			d = 0
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(d)
		select {
		case <-s.closed:
			return
		case <-s.timerKick:
			continue // recompute the sleep against the new earliest
		case <-timer.C:
		}
		now := time.Now()
		due = due[:0]
		s.timerMu.Lock()
		for len(s.theap) > 0 && !s.theap[0].deadline.After(now) {
			due = append(due, heap.Pop(&s.theap).(*Session))
		}
		s.timerMu.Unlock()
		for _, sess := range due {
			sess.pumpDue.Store(true)
			s.schedule(sess)
		}
	}
}

// rotateLoop swaps the generations every interval.
func (s *Server) rotateLoop(interval time.Duration) {
	defer s.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-ticker.C:
			s.rotate(time.Now())
		}
	}
}

// Rotate swaps the session-map generations once: current becomes previous,
// and every association still in the (just-retired) previous generation —
// idle for at least one full interval, since any traffic or local send
// would have promoted or re-stamped it — is retired. The cost is a pointer
// swap per shard plus a fold per actually-idle session, independent of the
// live table size. Called automatically every ServerOptions.RotateInterval;
// exported for tests, benchmarks, and manual sweeps.
func (s *Server) Rotate() {
	s.rotate(time.Now())
}

func (s *Server) rotate(now time.Time) {
	s.rotateMu.Lock()
	defer s.rotateMu.Unlock()
	cutoff := s.lastRotate
	s.lastRotate = now.UnixNano()
	s.tel.Rotations.Inc()
	var dead []*Session
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		graves := sh.old
		sh.old = sh.cur
		sh.cur = make(map[uint64]*Session)
		for assoc, sess := range graves {
			if sess.lastActive.Load() >= cutoff {
				// Touched since the previous rotation but never promoted
				// by inbound traffic (a local-send-only association):
				// still live, give it another generation.
				sh.old[assoc] = sess
				continue
			}
			dead = append(dead, sess)
		}
		sh.mu.Unlock()
	}
	for _, sess := range dead {
		s.expire(now, sess)
	}
}

// expire retires one idle association popped off the previous generation
// by rotate: fold its telemetry like remove, mark the expiry distinctly
// (sessions_expired, ReasonExpired, a VerdictExpire span, EventExpired),
// and stop its timers. The session is already out of both maps, so a
// concurrent Close/remove finds nothing and cannot double-fold.
func (s *Server) expire(now time.Time, sess *Session) {
	sess.stop()
	s.foldRetired(sess)
	s.tel.SessionsExpired.Inc()
	s.tel.SessionsRemoved.Inc()
	s.tel.ActiveSessions.Dec()
	s.tracer.Trace(now.UnixNano(), telemetry.TraceSessionEnd, sess.assoc, 0, telemetry.ReasonExpired)
	if s.flight != nil {
		s.flight.Ring(sess.assoc).Emit(now.UnixNano(), sess.assoc, 0, 0, obs.RoleTransport, obs.StepNone, 0, obs.VerdictExpire, telemetry.ReasonExpired)
	}
	s.flight.Retire(sess.assoc)
	// The consumer (if any) learns the transport retired the session.
	select {
	case sess.events <- core.Event{Kind: core.EventExpired}:
	default:
		s.tel.EventDrops.Inc()
	}
}

// foldRetired folds a departing session's endpoint counters into the
// retired set so server-wide aggregates survive session churn.
// Chain-pressure gauges are point-in-time, not cumulative, so they are
// zeroed before the fold — a retired chain exerts no pressure.
func (s *Server) foldRetired(sess *Session) {
	et := sess.ep.Telemetry()
	et.SigChainRemaining.Set(0)
	et.SigChainLen.Set(0)
	et.AckChainRemaining.Set(0)
	et.AckChainLen.Set(0)
	et.AddTo(&s.retired)
}

// remove drops a session from the routing table (either generation),
// folding its endpoint counters into the retired set. The presence check
// makes double-removal — and a removal racing a rotation's expiry —
// harmless: whoever takes the session out of the maps does the fold.
func (s *Server) remove(assoc uint64) {
	sh := s.shard(assoc)
	sh.mu.Lock()
	sess, ok := sh.cur[assoc]
	if ok {
		delete(sh.cur, assoc)
	} else if sess, ok = sh.old[assoc]; ok {
		delete(sh.old, assoc)
	}
	sh.mu.Unlock()
	if !ok {
		return
	}
	s.foldRetired(sess)
	s.flight.Retire(assoc)
	s.tel.SessionsRemoved.Inc()
	s.tel.ActiveSessions.Dec()
	s.tracer.Trace(time.Now().UnixNano(), telemetry.TraceSessionEnd, assoc, 0, 0)
}

// Telemetry returns the server's live transport metric set for export.
func (s *Server) Telemetry() *telemetry.TransportMetrics { return &s.tel }

// EndpointTelemetry sums the endpoint metrics of every session this server
// has held — live sessions in both generations plus the retired fold —
// into a fresh set. Call it at scrape time (e.g. from a
// telemetry.WalkerFunc) so the aggregate tracks session churn without the
// hot path paying for aggregation.
func (s *Server) EndpointTelemetry() *telemetry.EndpointMetrics {
	agg := telemetry.NewEndpointMetrics()
	s.retired.AddTo(agg)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, sess := range sh.cur {
			sess.ep.Telemetry().AddTo(agg)
		}
		for _, sess := range sh.old {
			sess.ep.Telemetry().AddTo(agg)
		}
		sh.mu.Unlock()
	}
	return agg
}

// Session is one association served by a Server. Its API mirrors Conn.
type Session struct {
	server *Server
	assoc  uint64
	mu     sync.Mutex
	ep     *core.Endpoint
	peer   net.Addr
	io     udpio.Conn // socket engine replies leave through

	wbatch []udpio.Message // coalescing scratch for pumpLocked

	inbox       chan datagram
	events      chan core.Event
	established bool
	timerStop   chan struct{}
	stopOnce    sync.Once

	// Scheduling state (see Server.schedule / runSession): the worker the
	// session has affinity to, its position in that worker's intrusive run
	// queue, the ownership token, and the pending-pump flag the timer loop
	// sets.
	wkr       *worker
	next      *Session
	scheduled atomic.Bool
	pumpDue   atomic.Bool

	// lastActive is the UnixNano of the last inbound datagram or local
	// send — what generation rotation consults before retiring an
	// association that never promoted itself via inbound traffic.
	lastActive atomic.Int64

	// Deadline-heap bookkeeping, guarded by Server.timerMu.
	deadline time.Time
	heapIdx  int
}

func newSession(srv *Server, ep *core.Endpoint, assoc uint64, peer net.Addr, via udpio.Conn) *Session {
	sess := &Session{
		server:    srv,
		assoc:     assoc,
		ep:        ep,
		peer:      peer,
		io:        via,
		inbox:     make(chan datagram, srv.opts.inboxSize()),
		events:    make(chan core.Event, srv.opts.eventBuffer()),
		timerStop: make(chan struct{}),
		heapIdx:   -1,
	}
	sess.wkr = &srv.workers[assoc%uint64(len(srv.workers))]
	sess.lastActive.Store(time.Now().UnixNano())
	return sess
}

// Peer returns the remote address.
func (s *Session) Peer() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peer
}

// Events returns the engine event stream.
func (s *Session) Events() <-chan core.Event { return s.events }

// Endpoint exposes the engine for stats; do not call engine methods.
func (s *Session) Endpoint() *core.Endpoint { return s.ep }

// Send queues a protected message to this session's peer.
func (s *Session) Send(payload []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ep == nil {
		return 0, ErrClosed
	}
	now := time.Now()
	id, err := s.ep.Send(now, payload)
	if err != nil {
		return 0, err
	}
	s.lastActive.Store(now.UnixNano())
	s.pumpLocked(now)
	return id, nil
}

// Flush forces partial batches out.
func (s *Session) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	s.ep.Flush(now)
	s.lastActive.Store(now.UnixNano())
	s.pumpLocked(now)
}

// Close detaches the session from the server.
func (s *Session) Close() error {
	s.stop()
	s.server.remove(s.assoc)
	return nil
}

func (s *Session) stop() {
	s.stopOnce.Do(func() { close(s.timerStop) })
}

// stopped reports whether stop has run (Close, expiry, or server
// shutdown).
func (s *Session) stopped() bool {
	select {
	case <-s.timerStop:
		return true
	default:
		return false
	}
}

// handle feeds one datagram into the session's engine without pumping:
// runSession pumps once after the whole drain. The engine copies everything
// it keeps, so data may be recycled once this returns. Called only by the
// session's current owner (see runSession).
func (s *Session) handle(now time.Time, from net.Addr, via udpio.Conn, data []byte, srv *Server) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if from != nil {
		s.peer = from // track peer mobility (ALPHA identity is the chain, not the address)
	}
	if via != nil {
		s.io = via // replies follow the socket the kernel picked for this flow
	}
	evs, _ := s.ep.Handle(now, data)
	for _, ev := range evs {
		if ev.Kind == core.EventEstablished && !s.established {
			s.established = true
			if !srv.announce(s) {
				// Accept backlog full: retire immediately. The initiator
				// will see its subsequent traffic dropped as unknown.
				s.stop()
				srv.remove(s.assoc)
				return
			}
		}
		s.forwardEvent(ev)
	}
}

// forwardEvent hands one engine event to the consumer (best-effort, counted
// when the channel is full) and fires the flight recorder on chain-pressure
// anomalies. Callers hold s.mu.
func (s *Session) forwardEvent(ev core.Event) {
	if ev.Kind == core.EventChainLow && s.server.flight != nil {
		s.server.flight.Trigger(s.assoc, obs.CauseChainLow)
	}
	select {
	case s.events <- ev:
	default:
		s.server.tel.EventDrops.Inc()
	}
}

// pumpLocked drains the engine outbox through the coalescing writer: the
// whole Poll harvest — an ALPHA-C/M burst's S2s plus its S1, or the A2s
// answering a drained run of S2s — leaves in one WriteBatch, hence (on
// Linux) one sendmmsg with each equal-size run GSO-packed. It then re-arms
// the session's slot on the shared deadline heap from the engine's next
// timeout. Callers hold s.mu.
func (s *Session) pumpLocked(now time.Time) {
	out, evs := s.ep.Poll(now)
	for _, ev := range evs {
		s.forwardEvent(ev)
	}
	srv := s.server
	if s.peer != nil && len(out) > 0 {
		ms := s.wbatch[:0]
		for _, raw := range out {
			if srv.io.Prefilter {
				packet.StampCookie(raw, srv.stampIP, srv.stampPort)
			}
			ms = append(ms, udpio.Message{Buf: raw, N: len(raw), Addr: s.peer})
		}
		s.wbatch = ms
		s.io.WriteBatch(ms)
	}
	next, ok := s.ep.NextTimeout()
	srv.armTimer(s, next, ok)
}

// ErrServerClosed reports operations on a closed server.
var ErrServerClosed = errors.New("udptransport: server closed")
