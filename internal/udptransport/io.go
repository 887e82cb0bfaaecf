// I/O engine selection for the UDP transport. Every socket the package
// touches is wrapped in a udpio.Conn: by default the segmentation-offload
// engine where the kernel grants UDP GSO/GRO, batched recvmmsg/sendmmsg
// where it refuses, the portable one-datagram shim off Linux.

package udptransport

import (
	"net"

	"alpha/internal/telemetry"
	"alpha/internal/udpio"
)

// Engine selects the datagram I/O engine beneath a transport.
type Engine uint8

const (
	// EngineDefault is udpio.Wrap's ladder: GSO/GRO offload, then the
	// batched engine when the kernel refuses the offload probe, then the
	// portable shim off Linux.
	EngineDefault Engine = iota
	// EngineBatched pins recvmmsg/sendmmsg without segmentation offload.
	EngineBatched
	// EnginePortable pins the one-datagram-per-syscall shim.
	EnginePortable
)

// IOOptions selects and sizes the datagram I/O engine.
type IOOptions struct {
	// Batch caps the datagrams moved per syscall on the batched engines and
	// sizes the read slabs. 0 means udpio.DefaultBatch.
	Batch int
	// Engine pins an engine; the zero value is the default ladder. The
	// other settings exist for the engine-matrix tests and before/after
	// benchmarks.
	Engine Engine
	// Prefilter enables the stateless per-packet prefilter
	// (packet.Prefilter): outgoing packets are stamped with an
	// address-bound filter cookie, and — on the server and relay — inbound
	// datagrams failing the structural or cookie checks are rejected
	// before any session lookup or MAC, counted under drop_prefilter.
	// Enable it on every hop of a path or not at all: a stamped packet
	// crossing a non-restamping hop fails the next hop's check. Requires
	// UDP addressing with no NAT between hops.
	Prefilter bool
}

// addrIPPort extracts the cookie-binding view of a UDP address: the
// 4-byte-normalized IP (nil when unspecified or not UDP) and the port.
//
//alpha:hotpath
func addrIPPort(a net.Addr) ([]byte, int) {
	ua, ok := a.(*net.UDPAddr)
	if !ok {
		return nil, 0
	}
	ip := ua.IP
	if ip == nil || ip.IsUnspecified() {
		return nil, ua.Port
	}
	if v4 := ip.To4(); v4 != nil {
		return v4, ua.Port
	}
	return ip, ua.Port
}

func (o IOOptions) batch() int {
	if o.Batch <= 0 {
		return udpio.DefaultBatch
	}
	return o.Batch
}

// wrap builds the selected engine over pc.
func (o IOOptions) wrap(pc net.PacketConn, m *telemetry.IOMetrics) udpio.Conn {
	switch o.Engine {
	case EngineBatched:
		return udpio.WrapBatched(pc, o.batch(), m)
	case EnginePortable:
		return udpio.Portable(pc, m)
	}
	return udpio.Wrap(pc, o.batch(), m)
}

// downgradeWarning renders the one log line a node prints when the default
// engine's offload probe was refused and c runs the batched engine instead,
// or "" when nothing was lost: offload granted, an engine pinned on
// purpose, or no probe made (the portable shim off Linux).
func (o IOOptions) downgradeWarning(c udpio.Conn) string {
	if o.Engine != EngineDefault || !c.Batched() || udpio.Offloaded(c) {
		return ""
	}
	return "udp offload (UDP_SEGMENT/UDP_GRO) unavailable on this kernel; continuing on the batched engine"
}

// connBatch sizes a single-association Conn's read slab: one association
// never needs the server's full burst depth, and each slab slot pins a
// MaxPacketSize buffer.
const connBatch = 8
