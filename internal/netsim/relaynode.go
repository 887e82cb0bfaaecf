// Relay adapter: runs a relay.Relay as a forwarding node in the simulator.

package netsim

import (
	"bytes"
	"time"

	"alpha/internal/relay"
)

// RelayNode is a forwarding node that applies ALPHA hop-by-hop verification
// to everything it relays.
type RelayNode struct {
	Name string
	R    *relay.Relay
	// OnDecision, if set, observes every verdict (for tests and demos).
	OnDecision func(now time.Time, pkt Packet, d relay.Decision)
	// Extracted accumulates verified payloads the relay could act on.
	Extracted [][]byte
}

// NewRelayNode registers a verifying relay on the network.
func NewRelayNode(net *Network, name string, cfg relay.Config) *RelayNode {
	rn := &RelayNode{Name: name, R: relay.New(cfg)}
	net.AddNode(name, rn)
	return rn
}

// Receive implements Handler: verify, then forward or drop. Bundles may be
// re-framed in flight when some of their sub-packets fail verification.
func (rn *RelayNode) Receive(net *Network, now time.Time, pkt Packet) {
	d := rn.R.Process(now, pkt.Data)
	if rn.OnDecision != nil {
		rn.OnDecision(now, pkt, d)
	}
	if d.Verdict != relay.Forward {
		return
	}
	// Extractions alias the datagram; the node keeps copies.
	for _, x := range d.Extractions() {
		rn.Extracted = append(rn.Extracted, bytes.Clone(x))
	}
	if d.Rewritten != nil {
		pkt.Data = d.Rewritten
	}
	_ = net.Forward(rn.Name, pkt)
}

// PlainRelayNode forwards everything unverified: an ALPHA-unaware router,
// used to demonstrate incremental deployment (§3.5).
type PlainRelayNode struct {
	Name      string
	Forwarded uint64
}

// NewPlainRelayNode registers a dumb forwarding node on the network.
func NewPlainRelayNode(net *Network, name string) *PlainRelayNode {
	pn := &PlainRelayNode{Name: name}
	net.AddNode(name, pn)
	return pn
}

// Receive implements Handler.
func (pn *PlainRelayNode) Receive(net *Network, now time.Time, pkt Packet) {
	pn.Forwarded++
	_ = net.Forward(pn.Name, pkt)
}
