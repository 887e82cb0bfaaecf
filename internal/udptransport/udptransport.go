// Package udptransport runs the sans-IO ALPHA engine over real datagram
// sockets. It is the deployment path of the library: the same engine that
// the simulator drives deterministically is driven here by a reader
// goroutine and a retransmission timer. One Conn wraps one association.
//
// The package works with any net.PacketConn, so tests can use in-process
// UDP over the loopback interface and deployments can substitute their own
// datagram transports. All socket I/O goes through internal/udpio: batched
// recvmmsg/sendmmsg on Linux, a portable shim elsewhere, selectable per
// connection with IOOptions.
package udptransport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"alpha/internal/core"
	"alpha/internal/packet"
	"alpha/internal/telemetry"
	"alpha/internal/udpio"
)

// Conn is a blocking, goroutine-safe wrapper around one ALPHA association
// on a datagram socket.
type Conn struct {
	pc        net.PacketConn
	io        udpio.Conn
	downgrade string
	mu        sync.Mutex
	ep        *core.Endpoint
	peer      net.Addr

	wbatch []udpio.Message // coalescing scratch for pumpLocked
	tel    telemetry.IOMetrics

	// Outgoing filter-cookie binding (IOOptions.Prefilter): the peer's
	// prefilter recomputes the cookie from our source address.
	prefilter bool
	stampIP   []byte
	stampPort int

	events      chan core.Event
	established chan struct{}
	estOnce     sync.Once
	closed      chan struct{}
	closeOnce   sync.Once
	wg          sync.WaitGroup
}

// ErrClosed is returned by operations on a closed Conn.
var ErrClosed = errors.New("udptransport: connection closed")

// Dial starts an association as initiator toward peer and blocks until it
// establishes or the timeout expires.
func Dial(pc net.PacketConn, peer net.Addr, cfg core.Config, timeout time.Duration) (*Conn, error) {
	return DialOpts(pc, peer, cfg, timeout, IOOptions{})
}

// DialOpts is Dial with an explicit I/O engine selection.
func DialOpts(pc net.PacketConn, peer net.Addr, cfg core.Config, timeout time.Duration, opts IOOptions) (*Conn, error) {
	ep, err := core.NewEndpoint(cfg)
	if err != nil {
		return nil, err
	}
	c := newConn(pc, ep, peer, opts)
	hs1, err := ep.StartHandshake(time.Now())
	if err != nil {
		c.Close()
		return nil, err
	}
	c.stamp(hs1)
	if _, err := c.io.WriteBatch([]udpio.Message{{Buf: hs1, N: len(hs1), Addr: peer}}); err != nil {
		c.Close()
		return nil, fmt.Errorf("udptransport: sending HS1: %w", err)
	}
	c.start()
	select {
	case <-c.established:
		return c, nil
	case <-time.After(timeout):
		c.Close()
		return nil, errors.New("udptransport: handshake timeout")
	case <-c.closed:
		return nil, ErrClosed
	}
}

// Listen starts a responder that accepts the first handshake arriving on
// the socket and blocks until the association establishes or the timeout
// expires.
func Listen(pc net.PacketConn, cfg core.Config, timeout time.Duration) (*Conn, error) {
	return ListenOpts(pc, cfg, timeout, IOOptions{})
}

// ListenOpts is Listen with an explicit I/O engine selection.
func ListenOpts(pc net.PacketConn, cfg core.Config, timeout time.Duration, opts IOOptions) (*Conn, error) {
	ep, err := core.NewEndpoint(cfg)
	if err != nil {
		return nil, err
	}
	c := newConn(pc, ep, nil, opts)
	c.start()
	select {
	case <-c.established:
		return c, nil
	case <-time.After(timeout):
		c.Close()
		return nil, errors.New("udptransport: no handshake received")
	case <-c.closed:
		return nil, ErrClosed
	}
}

// Wrap runs a caller-constructed endpoint over the socket — the entry point
// for statically bootstrapped (preconfigured) associations, which have no
// handshake. peer may be nil; a responder then adopts the first sender.
// The connection is returned immediately; if the endpoint is already
// established (preconfigured), it is usable at once.
func Wrap(pc net.PacketConn, ep *core.Endpoint, peer net.Addr) *Conn {
	return WrapOpts(pc, ep, peer, IOOptions{})
}

// WrapOpts is Wrap with an explicit I/O engine selection.
func WrapOpts(pc net.PacketConn, ep *core.Endpoint, peer net.Addr, opts IOOptions) *Conn {
	c := newConn(pc, ep, peer, opts)
	if ep.Established() {
		c.estOnce.Do(func() { close(c.established) })
	}
	c.start()
	return c
}

func newConn(pc net.PacketConn, ep *core.Endpoint, peer net.Addr, opts IOOptions) *Conn {
	if opts.Batch <= 0 || opts.Batch > connBatch {
		opts.Batch = connBatch // one association never needs the server's burst depth
	}
	c := &Conn{
		pc:          pc,
		ep:          ep,
		peer:        peer,
		prefilter:   opts.Prefilter,
		events:      make(chan core.Event, 256),
		established: make(chan struct{}),
		closed:      make(chan struct{}),
	}
	c.tel.Init()
	c.io = opts.wrap(pc, &c.tel)
	c.downgrade = opts.downgradeWarning(c.io)
	if opts.Prefilter {
		c.stampIP, c.stampPort = addrIPPort(pc.LocalAddr())
	}
	return c
}

// stamp writes the outgoing filter cookie when prefiltering is enabled.
func (c *Conn) stamp(raw []byte) {
	if c.prefilter {
		packet.StampCookie(raw, c.stampIP, c.stampPort)
	}
}

func (c *Conn) start() {
	c.wg.Add(2)
	go c.readLoop()
	go c.timerLoop()
}

// Events returns the channel of engine events (deliveries, acks, drops).
// The channel is buffered; if the application stops draining it, further
// events are discarded rather than blocking the protocol.
func (c *Conn) Events() <-chan core.Event { return c.events }

// Endpoint exposes the underlying engine for stats inspection. Callers
// must not invoke engine methods directly.
func (c *Conn) Endpoint() *core.Endpoint { return c.ep }

// DowngradeWarning is the one log line to print when the kernel refused
// the default engine's offload probe on this connection's socket, "" when
// nothing was lost.
func (c *Conn) DowngradeWarning() string { return c.downgrade }

// IOTelemetry returns the connection's I/O engine accounting: batches,
// datagrams, offload runs, and datagrams a refused write left unsent.
func (c *Conn) IOTelemetry() *telemetry.IOMetrics { return &c.tel }

// Peer returns the remote address (nil until a responder learns it).
func (c *Conn) Peer() net.Addr {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peer
}

// Send queues payload for protected transmission and returns its message ID.
func (c *Conn) Send(payload []byte) (uint64, error) {
	select {
	case <-c.closed:
		return 0, ErrClosed
	default:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	id, err := c.ep.Send(time.Now(), payload)
	if err != nil {
		return 0, err
	}
	c.pumpLocked(time.Now())
	return id, nil
}

// Flush forces partial batches out immediately.
func (c *Conn) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ep.Flush(time.Now())
	c.pumpLocked(time.Now())
}

// Close shuts the connection down. The underlying socket is closed too.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.pc.Close()
	})
	c.wg.Wait()
	return nil
}

// readLoop feeds received datagrams into the engine, a burst at a time.
// The slab buffers are reused across iterations: the engine copies every
// field it keeps, so nothing retains them once Handle returns.
func (c *Conn) readLoop() {
	defer c.wg.Done()
	ms := make([]udpio.Message, connBatch)
	for i := range ms {
		ms[i].Buf = make([]byte, packet.MaxPacketSize)
	}
	for {
		n, err := c.io.ReadBatch(ms)
		if err != nil {
			select {
			case <-c.closed:
			default:
				c.closeOnce.Do(func() {
					close(c.closed)
					c.pc.Close()
				})
			}
			return
		}
		now := time.Now()
		c.mu.Lock()
		for i := 0; i < n; i++ {
			if c.peer == nil {
				// Responder: adopt the first sender as our peer.
				c.peer = ms[i].Addr
			}
			evs, _ := c.ep.Handle(now, ms[i].Buf[:ms[i].N])
			c.dispatch(evs)
		}
		c.pumpLocked(now)
		c.mu.Unlock()
	}
}

// timerLoop drives the engine's retransmission and flush timers.
func (c *Conn) timerLoop() {
	defer c.wg.Done()
	timer := time.NewTimer(10 * time.Millisecond)
	defer timer.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-timer.C:
		}
		now := time.Now()
		c.mu.Lock()
		c.pumpLocked(now)
		next, ok := c.ep.NextTimeout()
		c.mu.Unlock()
		d := 50 * time.Millisecond
		if ok {
			if until := time.Until(next); until < d {
				d = until
			}
			if d < time.Millisecond {
				d = time.Millisecond
			}
		}
		timer.Reset(d)
	}
}

// pumpLocked drains the engine outbox onto the socket through the
// coalescing writer: one Poll harvest, one WriteBatch, one sendmmsg.
// Callers hold c.mu.
func (c *Conn) pumpLocked(now time.Time) {
	out, evs := c.ep.Poll(now)
	c.dispatch(evs)
	if c.peer == nil || len(out) == 0 {
		return
	}
	ms := c.wbatch[:0]
	for _, raw := range out {
		c.stamp(raw)
		ms = append(ms, udpio.Message{Buf: raw, N: len(raw), Addr: c.peer})
	}
	c.wbatch = ms
	c.io.WriteBatch(ms)
}

// dispatch forwards events to the application channel without blocking.
func (c *Conn) dispatch(evs []core.Event) {
	for _, ev := range evs {
		if ev.Kind == core.EventEstablished {
			c.estOnce.Do(func() { close(c.established) })
		}
		select {
		case c.events <- ev:
		default: // application not draining; drop rather than stall
		}
	}
}
