// Package attack provides adversary models for exercising ALPHA's security
// properties inside the simulator: on-path tampering, packet forgery,
// replay, reformatting, flooding, and the colluding bypass attack of §3.1.1
// of the paper. Each adversary is a netsim node that can be dropped into a
// topology in place of (or alongside) an honest relay.
//
// These are test instruments for evaluating a defensive protocol inside a
// closed simulation; they act only on simulated traffic.
package attack

import (
	"math/rand"
	"time"

	"alpha/internal/admission"
	"alpha/internal/core"
	"alpha/internal/netsim"
	"alpha/internal/packet"
)

// TamperNode is an on-path adversary that rewrites S2 payloads while
// forwarding everything else untouched — the packet-manipulation insider of
// §1 that end-to-end symmetric schemes cannot expose to relays.
type TamperNode struct {
	Name string
	// Replacement is the payload written into tampered S2 packets.
	Replacement []byte
	// Tampered counts rewritten packets.
	Tampered uint64
	// Limit stops tampering after this many packets when positive.
	Limit int
}

// NewTamperNode registers a tampering relay on the network.
func NewTamperNode(net *netsim.Network, name string, replacement []byte) *TamperNode {
	tn := &TamperNode{Name: name, Replacement: replacement}
	net.AddNode(name, tn)
	return tn
}

// Receive implements netsim.Handler.
func (tn *TamperNode) Receive(net *netsim.Network, now time.Time, pkt netsim.Packet) {
	var p packet.Packet
	if err := p.Decode(pkt.Data); err == nil && p.Type == packet.TypeS2 && (tn.Limit <= 0 || int(tn.Tampered) < tn.Limit) {
		p.S2.Payload = tn.Replacement
		if raw, err := packet.Encode(p.Header, &p.S2); err == nil {
			tn.Tampered++
			pkt.Data = raw
		}
	}
	_ = net.Forward(tn.Name, pkt)
}

// ReplayNode records passing packets and can replay them later.
type ReplayNode struct {
	Name     string
	Captured []netsim.Packet
	// Filter selects which packet types are captured; nil captures all.
	Filter map[packet.Type]bool
}

// NewReplayNode registers a capturing relay on the network.
func NewReplayNode(net *netsim.Network, name string, types ...packet.Type) *ReplayNode {
	rn := &ReplayNode{Name: name}
	if len(types) > 0 {
		rn.Filter = make(map[packet.Type]bool)
		for _, t := range types {
			rn.Filter[t] = true
		}
	}
	net.AddNode(name, rn)
	return rn
}

// Receive implements netsim.Handler: capture, then forward faithfully.
func (rn *ReplayNode) Receive(net *netsim.Network, now time.Time, pkt netsim.Packet) {
	var p packet.Packet
	if err := p.Decode(pkt.Data); err == nil && (rn.Filter == nil || rn.Filter[p.Type]) {
		cp := pkt
		cp.Data = append([]byte(nil), pkt.Data...)
		rn.Captured = append(rn.Captured, cp)
	}
	_ = net.Forward(rn.Name, pkt)
}

// ReplayAll re-injects every captured packet toward its destination.
func (rn *ReplayNode) ReplayAll(net *netsim.Network) {
	for _, pkt := range rn.Captured {
		_ = net.Forward(rn.Name, pkt)
	}
}

// FloodNode injects forged traffic toward a victim at a configurable rate:
// the resource-exhaustion attacker of §1/§3.5.
type FloodNode struct {
	Name   string
	Victim string
	// Assoc is the association ID to forge packets for (0 = random junk).
	Assoc uint64
	// Kind selects the forged packet type (TypeS2 by default: unsolicited
	// payloads, the expensive kind).
	Kind packet.Type
	// PayloadSize sizes forged payloads.
	PayloadSize int
	// Sent counts injected packets.
	Sent uint64

	rng *rand.Rand
}

// NewFloodNode registers a flooding source.
func NewFloodNode(net *netsim.Network, name, victim string, assoc uint64) *FloodNode {
	fn := &FloodNode{Name: name, Victim: victim, Assoc: assoc, Kind: packet.TypeS2, PayloadSize: 512, rng: rand.New(rand.NewSource(0xF100D))}
	net.AddNode(name, fn)
	return fn
}

// Receive implements netsim.Handler (floods ignore incoming traffic).
func (fn *FloodNode) Receive(net *netsim.Network, now time.Time, pkt netsim.Packet) {}

// FloodFor schedules count forged packets spread over the given window.
func (fn *FloodNode) FloodFor(net *netsim.Network, start time.Time, window time.Duration, count int) {
	if count <= 0 {
		return
	}
	step := window / time.Duration(count)
	for i := 0; i < count; i++ {
		at := start.Add(time.Duration(i) * step)
		net.Schedule(at, func(now time.Time) {
			raw := fn.forge()
			fn.Sent++
			_ = net.Inject(fn.Name, fn.Victim, raw)
		})
	}
}

// forge builds a syntactically valid but cryptographically worthless packet.
func (fn *FloodNode) forge() []byte {
	h := packet.Header{
		Type:  fn.Kind,
		Suite: 1, // SHA-1
		Flags: core.FlagInitiator,
		Assoc: fn.Assoc,
		Seq:   fn.rng.Uint32(),
	}
	junk := make([]byte, 20)
	fn.rng.Read(junk)
	payload := make([]byte, fn.PayloadSize)
	fn.rng.Read(payload)
	var msg packet.Message
	switch fn.Kind {
	case packet.TypeS1:
		msg = &packet.S1{Mode: packet.ModeBase, AuthIdx: 1, Auth: junk, KeyIdx: 2, MACBlock: junk}
	default:
		h.Type = packet.TypeS2
		msg = &packet.S2{Mode: packet.ModeBase, KeyIdx: 2, Key: junk, Payload: payload}
	}
	raw, err := packet.Encode(h, msg)
	if err != nil {
		return junk
	}
	return raw
}

// HSFloodMode selects the admission-evasion strategy of a handshake flood.
type HSFloodMode int

const (
	// HSTokenless sends HS1s carrying no connect token at all.
	HSTokenless HSFloodMode = iota
	// HSForgedToken attaches random bytes of the right token length.
	HSForgedToken
	// HSReplayedToken re-sends one captured legitimate token verbatim.
	HSReplayedToken
)

// HSFloodNode is the handshake-flood attacker the admission tier exists to
// stop: it sprays HS1 packets with fresh association IDs at a victim,
// trying to force per-handshake state (or signature verifications) into
// existence. Its three modes cover the evasion ladder — no token, a forged
// token, and a replayed legitimate token.
type HSFloodNode struct {
	Name   string
	Victim string
	Mode   HSFloodMode
	// Token is the captured token re-sent verbatim in HSReplayedToken mode.
	Token []byte
	// Sent counts injected handshakes.
	Sent uint64

	rng *rand.Rand
}

// NewHSFloodNode registers a handshake-flooding source.
func NewHSFloodNode(net *netsim.Network, name, victim string, mode HSFloodMode) *HSFloodNode {
	fn := &HSFloodNode{Name: name, Victim: victim, Mode: mode, rng: rand.New(rand.NewSource(0x45F100D))}
	net.AddNode(name, fn)
	return fn
}

// Receive implements netsim.Handler (floods ignore incoming traffic).
func (fn *HSFloodNode) Receive(net *netsim.Network, now time.Time, pkt netsim.Packet) {}

// FloodFor schedules count forged handshakes spread over the given window.
func (fn *HSFloodNode) FloodFor(net *netsim.Network, start time.Time, window time.Duration, count int) {
	if count <= 0 {
		return
	}
	step := window / time.Duration(count)
	for i := 0; i < count; i++ {
		at := start.Add(time.Duration(i) * step)
		net.Schedule(at, func(now time.Time) {
			raw := fn.forgeHS1()
			fn.Sent++
			_ = net.Inject(fn.Name, fn.Victim, raw)
		})
	}
}

// forgeHS1 builds a syntactically valid HS1 with junk anchors, a fresh
// association ID, and the mode's token (if any).
func (fn *HSFloodNode) forgeHS1() []byte {
	junk := make([]byte, 60)
	fn.rng.Read(junk)
	hs := &packet.Handshake{
		Initiator: true,
		SigAnchor: junk[:20],
		AckAnchor: junk[20:40],
		ChainLen:  64,
		Nonce:     junk[40:60],
	}
	h := packet.Header{
		Type:  packet.TypeHS1,
		Suite: 1, // SHA-1
		Flags: core.FlagInitiator,
		Assoc: fn.rng.Uint64(),
	}
	switch fn.Mode {
	case HSForgedToken:
		tok := make([]byte, admission.TokenLen)
		fn.rng.Read(tok)
		tok[0] = admission.TokenVersion
		hs.HasToken, hs.Token = true, tok
		h.Flags |= packet.FlagToken
	case HSReplayedToken:
		hs.HasToken, hs.Token = true, fn.Token
		h.Flags |= packet.FlagToken
	}
	raw, err := packet.Encode(h, hs)
	if err != nil {
		return junk
	}
	return raw
}

// BypassPair models the colluding bypass attack of §3.1.1: the upstream
// accomplice diverts signature traffic around a victim relay to a downstream
// accomplice, so the victim's view of the hash chain goes stale and it can
// later be fed replayed or forged exchange state. Install Upstream in the
// path before the victim; it tunnels selected packets directly to the node
// named Downstream (requires a link Upstream->Downstream in the topology).
type BypassPair struct {
	Name       string
	Victim     string // next hop on the honest path
	Downstream string // accomplice past the victim
	// Divert selects whether exchange traffic (S1/A1/S2/A2) is diverted;
	// handshakes always travel the honest path to stay inconspicuous.
	Divert   bool
	Diverted uint64
}

// NewBypassPair registers the upstream accomplice.
func NewBypassPair(net *netsim.Network, name, victim, downstream string) *BypassPair {
	bp := &BypassPair{Name: name, Victim: victim, Downstream: downstream, Divert: true}
	net.AddNode(name, bp)
	return bp
}

// Receive implements netsim.Handler: divert signature packets around the
// victim, forward everything else honestly. Traffic heading away from the
// victim (e.g. acknowledgments flowing back to the signer) is routed
// normally so the accomplice stays inconspicuous.
func (bp *BypassPair) Receive(net *netsim.Network, now time.Time, pkt netsim.Packet) {
	hop, ok := net.NextHop(bp.Name, pkt.Dest)
	if !ok {
		return
	}
	if hop != bp.Victim && hop != bp.Downstream {
		// Reverse-direction traffic: not our target, forward honestly.
		net.Transmit(netsim.Packet{From: bp.Name, To: hop, Origin: pkt.Origin, Dest: pkt.Dest, Data: pkt.Data})
		return
	}
	var p packet.Packet
	if err := p.Decode(pkt.Data); err == nil && bp.Divert && p.Type != packet.TypeHS1 && p.Type != packet.TypeHS2 {
		bp.Diverted++
		net.Transmit(netsim.Packet{From: bp.Name, To: bp.Downstream, Origin: pkt.Origin, Dest: pkt.Dest, Data: pkt.Data})
		return
	}
	net.Transmit(netsim.Packet{From: bp.Name, To: bp.Victim, Origin: pkt.Origin, Dest: pkt.Dest, Data: pkt.Data})
}
