// Package udpio is the batched datagram I/O engine beneath the UDP
// transport. On Linux it drains and fills the socket with recvmmsg and
// sendmmsg — one syscall moves up to a whole ALPHA-C/M burst of datagrams —
// and, where the kernel grants UDP GSO/GRO, hands each run of equal-size
// datagrams to the kernel as one segmentation-offload send. Everywhere else
// it degrades to a portable one-datagram-at-a-time shim behind the same
// interface, so the transport code above it never branches on platform.
//
// Buffer ownership follows one rule (DESIGN.md §5e): the caller owns every
// Message.Buf. ReadBatch writes into caller-provided buffers and never
// retains them past the call; WriteBatch reads from them and returns only
// after the kernel has copied the data out, so a buffer may be recycled the
// moment either call returns.
//
// Deadlines set on the underlying socket (SetReadDeadline and friends)
// apply to every engine: the batched paths wait for readiness through the
// runtime netpoller, exactly like net.PacketConn reads.
package udpio

import (
	"net"

	"alpha/internal/telemetry"
)

// DefaultBatch is the batch size transports use when none is configured:
// large enough to carry an entire ALPHA-C/M burst (the S1 plus BatchSize
// S2s) in one syscall, small enough that a slab of MaxPacketSize read
// buffers stays modest.
const DefaultBatch = 64

// Message is one datagram in a batch: its buffer, the valid length, and
// the source (after ReadBatch) or destination (for WriteBatch) address.
type Message struct {
	Buf  []byte
	N    int
	Addr net.Addr
}

// Conn is a datagram socket with batched read and write paths.
//
// ReadBatch blocks until at least one datagram is available, then fills as
// many of ms as the socket can supply without blocking again and returns
// the count; every ms[i].Buf must be non-empty. WriteBatch transmits all
// messages (ms[i].Buf[:ms[i].N] to ms[i].Addr) and returns the number sent,
// short only on error; the engine counts the unsent remainder in its
// IOMetrics (io_datagrams_unsent). Both are safe for concurrent use.
type Conn interface {
	ReadBatch(ms []Message) (int, error)
	WriteBatch(ms []Message) (int, error)
	// Batched reports whether the OS batched path (recvmmsg/sendmmsg) is
	// live rather than the portable fallback.
	Batched() bool
}

// Wrap returns the best Conn for pc. On Linux that is the segmentation-
// offload engine: recvmmsg/sendmmsg plus UDP GSO sends (each run of
// equal-size datagrams to one destination crosses the kernel UDP stack
// once) and UDP GRO receives. Wrap probes UDP_SEGMENT and UDP_GRO on the
// socket and falls back to the plain batched engine when the kernel refuses
// either; elsewhere, or when pc is not a *net.UDPConn, it returns the
// portable shim. batch caps the datagrams moved per syscall (0 means
// DefaultBatch); m receives I/O accounting and may be nil.
func Wrap(pc net.PacketConn, batch int, m *telemetry.IOMetrics) Conn {
	return wrap(pc, batch, true, m)
}

// WrapBatched is Wrap without the offload probe: the recvmmsg/sendmmsg
// engine on Linux, the portable shim elsewhere. It is the engine Wrap falls
// back to, exposed so tests and benchmarks can pin it.
func WrapBatched(pc net.PacketConn, batch int, m *telemetry.IOMetrics) Conn {
	return wrap(pc, batch, false, m)
}

func wrap(pc net.PacketConn, batch int, offload bool, m *telemetry.IOMetrics) Conn {
	if batch <= 0 {
		batch = DefaultBatch
	}
	if m == nil {
		m = new(telemetry.IOMetrics)
	}
	if uc, ok := pc.(*net.UDPConn); ok {
		if c, err := newBatchConn(uc, batch, m); err == nil {
			if offload {
				return withOffload(c)
			}
			return c
		}
	}
	return &portableConn{pc: pc, m: m}
}

// Offloaded reports whether c is the segmentation-offload engine, i.e.
// whether the kernel granted Wrap's UDP_SEGMENT/UDP_GRO probe.
func Offloaded(c Conn) bool {
	_, ok := c.(interface{ offloaded() })
	return ok
}

// CloseEngine releases engine-owned resources without closing the
// underlying socket. Every engine's resources are plain memory the garbage
// collector reclaims, so it is a no-op, kept for callers that pair it with
// Wrap.
func CloseEngine(Conn) error { return nil }

// Portable wraps pc with the one-datagram-at-a-time fallback regardless of
// platform — the reference implementation the batched engine must agree
// with, and the switch for exercising the portable path on Linux.
func Portable(pc net.PacketConn, m *telemetry.IOMetrics) Conn {
	if m == nil {
		m = new(telemetry.IOMetrics)
	}
	return &portableConn{pc: pc, m: m}
}

// portableConn implements Conn over any net.PacketConn with one datagram
// per socket operation: ReadBatch fills exactly one message, WriteBatch
// loops WriteTo.
type portableConn struct {
	pc net.PacketConn
	m  *telemetry.IOMetrics
}

func (c *portableConn) Batched() bool { return false }

func (c *portableConn) ReadBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	n, addr, err := c.pc.ReadFrom(ms[0].Buf)
	if err != nil {
		return 0, err
	}
	ms[0].N, ms[0].Addr = n, addr
	c.m.NoteRead(1)
	return 1, nil
}

func (c *portableConn) WriteBatch(ms []Message) (int, error) {
	for i := range ms {
		if _, err := c.pc.WriteTo(ms[i].Buf[:ms[i].N], ms[i].Addr); err != nil {
			c.m.NoteUnsent(len(ms) - i)
			return i, err
		}
		c.m.NoteWrite(1)
	}
	return len(ms), nil
}
