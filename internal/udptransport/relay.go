// UDP relay: a verifying forwarder between two fixed peers, the real-socket
// counterpart of netsim.RelayNode.

package udptransport

import (
	"net"
	"sync"
	"time"

	"alpha/internal/core"
	"alpha/internal/packet"
	"alpha/internal/relay"
	"alpha/internal/suite"
	"alpha/internal/telemetry"
	"alpha/internal/udpio"
)

// Relay forwards datagrams between two peers, applying ALPHA hop-by-hop
// verification to everything it relays. Packets arriving from addresses
// other than the two configured peers are dropped (and counted). The data
// path is batched end to end: one recvmmsg drains a burst into a slab of
// pooled buffers, every verified datagram of the burst is forwarded with
// one sendmmsg, and the slab is reused for the next burst.
type Relay struct {
	pc      net.PacketConn
	io      udpio.Conn
	offload udpio.OffloadStatus
	a, b    *net.UDPAddr
	r       *relay.Relay
	mu      sync.Mutex

	// Stateless prefilter state (IOOptions.Prefilter): inbound datagrams
	// are checked against the sender's address-bound cookie before
	// verification, and forwarded ones are restamped with this relay's
	// own binding — each hop of an ALPHA path owns its own cookie.
	prefilter bool
	stampIP   []byte
	stampPort int

	// OnDecision, if set, observes every verdict. It runs on the read loop
	// before the datagram's buffer is reused; d.Extracted aliases that
	// buffer, so a callback that keeps it must copy it.
	OnDecision func(d relay.Decision)

	tel telemetry.RelayTransportMetrics

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewRelay creates a verifying UDP relay between peers a and b.
func NewRelay(pc net.PacketConn, a, b net.Addr, cfg relay.Config) *Relay {
	return NewRelayOpts(pc, a, b, cfg, IOOptions{})
}

// NewRelayOpts is NewRelay with an explicit I/O engine selection.
func NewRelayOpts(pc net.PacketConn, a, b net.Addr, cfg relay.Config, opts IOOptions) *Relay {
	r := &Relay{
		pc:     pc,
		a:      asUDPAddr(a),
		b:      asUDPAddr(b),
		r:      relay.New(cfg),
		closed: make(chan struct{}),
	}
	r.tel.Init()
	r.io, r.offload = opts.wrapStatus(pc, &r.tel.IO)
	r.prefilter = opts.Prefilter
	if opts.Prefilter {
		r.stampIP, r.stampPort = addrIPPort(pc.LocalAddr())
	}
	r.wg.Add(1)
	go r.loop(opts.batch())
	return r
}

// asUDPAddr resolves the configured peer to a comparable form once, so the
// hot loop never calls Addr.String.
func asUDPAddr(a net.Addr) *net.UDPAddr {
	if ua, ok := a.(*net.UDPAddr); ok {
		return ua
	}
	ua, err := net.ResolveUDPAddr("udp", a.String())
	if err != nil {
		return &net.UDPAddr{}
	}
	return ua
}

// sameAddr reports whether from is the configured peer, without
// allocating.
func sameAddr(from net.Addr, peer *net.UDPAddr) bool {
	ua, ok := from.(*net.UDPAddr)
	if !ok {
		return false
	}
	return ua.Port == peer.Port && ua.IP.Equal(peer.IP)
}

// Seed installs a statically provisioned association (§3.4) so the relay
// verifies traffic whose handshake it will never see.
func (r *Relay) Seed(st suite.Suite, anchors core.AnchorSet) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r.Seed(st, anchors)
}

// Stats returns the underlying relay's counters.
func (r *Relay) Stats() relay.Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r.Stats()
}

// Telemetry returns the underlying relay's live metric set for export. The
// counters are atomic, so no lock is needed to read them.
func (r *Relay) Telemetry() *telemetry.RelayMetrics { return r.r.Telemetry() }

// TransportTelemetry returns the relay's socket-level metric set: datagram
// and byte counts, unknown-peer drops, and the I/O engine's batch
// accounting.
func (r *Relay) TransportTelemetry() *telemetry.RelayTransportMetrics { return &r.tel }

// OffloadStatus reports which requested offload features the kernel
// granted on the relay's socket (zero when none were requested).
func (r *Relay) OffloadStatus() udpio.OffloadStatus { return r.offload }

// Close stops the relay and closes its socket.
func (r *Relay) Close() error {
	r.closeOnce.Do(func() {
		close(r.closed)
		r.pc.Close()
		udpio.CloseEngine(r.io)
	})
	r.wg.Wait()
	return nil
}

// loop is the relay data path. The read slab comes from the shared buffer
// pool and is reused for every burst: WriteBatch returns only after the
// kernel has copied the forwarded datagrams out, and relay.Process copies
// everything it keeps, so no buffer outlives the iteration that read it.
func (r *Relay) loop(batch int) {
	defer r.wg.Done()
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
	fwd := make([]udpio.Message, 0, batch)
	for {
		n, err := r.io.ReadBatch(ms)
		if err != nil {
			return
		}
		now := time.Now()
		fwd = fwd[:0]
		for i := 0; i < n; i++ {
			r.tel.Datagrams.Inc()
			r.tel.Bytes.Add(uint64(ms[i].N))
			var to net.Addr
			var upstream int
			switch {
			case sameAddr(ms[i].Addr, r.a):
				to = r.b
			case sameAddr(ms[i].Addr, r.b):
				to, upstream = r.a, 1
			default:
				r.tel.UnknownPeerDrops.Inc()
				continue
			}
			data := ms[i].Buf[:ms[i].N]
			if r.prefilter {
				ip, port := addrIPPort(ms[i].Addr)
				if !packet.Prefilter(data, ip, port) {
					r.tel.PrefilterDrops.Inc()
					continue
				}
			}
			r.mu.Lock()
			d := r.r.ProcessFrom(now, upstream, data)
			r.mu.Unlock()
			if r.OnDecision != nil {
				r.OnDecision(d)
			}
			if d.Verdict != relay.Forward {
				continue
			}
			if d.Rewritten != nil {
				data = d.Rewritten
			}
			if r.prefilter {
				// Restamp for the next hop: the cookie binds to this
				// relay's source address now.
				packet.StampCookie(data, r.stampIP, r.stampPort)
			}
			fwd = append(fwd, udpio.Message{Buf: data, N: len(data), Addr: to})
		}
		if len(fwd) == 0 {
			continue
		}
		if _, err := r.io.WriteBatch(fwd); err != nil {
			// A refused batch loses every verified datagram in it —
			// counted, so forwarded-vs-sent discrepancies stay visible.
			r.tel.WriteErrors.Inc()
			return
		}
	}
}
