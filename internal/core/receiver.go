// Receiver half: processing S1/S2 packets, building A1/A2 responses.

package core

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"time"

	"alpha/internal/hashchain"
	"alpha/internal/merkle"
	"alpha/internal/obs"
	"alpha/internal/packet"
	"alpha/internal/suite"
	"alpha/internal/telemetry"
)

// rxExchange is the verifier-side state for one signature exchange: the
// buffered pre-signatures from the S1 and, in reliable mode, the pre-(n)ack
// material whose secrets will be opened in A2 packets. Its size is exactly
// the "Verifier" column of Tables 2 and 3.
type rxExchange struct {
	seq      uint32
	mode     packet.Mode
	reliable bool
	keyIdx   uint32 // expected disclosure index of the signer's MAC key
	// auth is the S1's verified chain element: the exchange's own trust
	// anchor. The S2's key element must hash to it, which keeps payload
	// verification independent of walker state (and of chain rekeys).
	auth []byte
	// key caches the verified MAC-key element after the first valid S2,
	// so duplicates verify by equality.
	key []byte

	// Pre-signatures buffered from the S1, as the flat digest runs the
	// S1 carried them in.
	macs      []byte // modes base and C
	root      []byte // mode M
	roots     []byte // mode CM
	leafCount int

	// Reliable-mode acknowledgment material.
	ackPair hashchain.Pair // our acknowledgment-chain elements
	sack    []byte         // base: secret opened for a positive ack
	snack   []byte         // base: secret opened for a negative ack
	amt     *merkle.AckTree

	a1        []byte // encoded A1 for retransmission on duplicate S1
	delivered []bool
	doneCount int
}

// bufferedBytes reports how much pre-signature state the exchange pins,
// reproducing the verifier column of Table 2 empirically.
func (rx *rxExchange) bufferedBytes() int {
	return len(rx.macs) + len(rx.root) + len(rx.roots)
}

// ackBytes reports the additional reliable-mode state (Table 3).
func (rx *rxExchange) ackBytes() int {
	n := len(rx.sack) + len(rx.snack)
	if rx.amt != nil {
		// The AMT retains 2n leaf secrets plus the tree nodes
		// (≈ 4n-1 digests counting both subtrees), matching the
		// paper's n·s + (4n-1)·h verifier entry.
		h := len(rx.amt.Root())
		n += 2*rx.amt.Messages()*h + (4*rx.amt.Messages()-1)*h
	}
	return n
}

// handleS1 verifies a pre-signature announcement and answers with an A1.
func (e *Endpoint) handleS1(now time.Time, hdr packet.Header, s1 *packet.S1) []Event {
	e.tel.RecvS1.Inc()
	if rx, ok := e.rx[hdr.Seq]; ok {
		// Duplicate S1 (our A1 was probably lost): resend the stored
		// A1 rather than re-verifying; the paper calls for robust and
		// fast S1/A1 retransmission (§3.5).
		if rx.a1 != nil {
			e.outbox = append(e.outbox, rx.a1)
			e.tel.BytesSent.Add(uint64(len(rx.a1)))
			e.tel.Retransmits.Inc()
		}
		return e.takeEvents()
	}
	if s1.AuthIdx%2 != 1 || s1.KeyIdx != s1.AuthIdx+1 {
		return e.drop(hdr.Seq, ErrBadAuthElement)
	}
	if err := e.verifyPeerSig(s1.Auth, s1.AuthIdx); err != nil {
		return e.drop(hdr.Seq, fmt.Errorf("%w: %v", ErrBadAuthElement, err))
	}
	e.spanKey = obs.Key(s1.Auth)
	e.tracer.Trace(e.tnow, telemetry.TraceS1Recv, e.assoc, hdr.Seq, 0)
	reliable := hdr.Flags&packet.FlagReliable != 0
	rx := &rxExchange{
		seq:      hdr.Seq,
		mode:     s1.Mode,
		reliable: reliable,
		keyIdx:   s1.KeyIdx,
	}
	// presig is the S1's pre-signature material and keep the exchange
	// field it is buffered in.
	var batch int
	var presig []byte
	var keep *[]byte
	switch s1.Mode {
	case packet.ModeBase, packet.ModeC:
		presig, keep = s1.MACBlock, &rx.macs
		batch = len(s1.MACBlock) / e.suite.Size()
	case packet.ModeM:
		presig, keep = s1.Root, &rx.root
		rx.leafCount = int(s1.LeafCount)
		batch = rx.leafCount
	case packet.ModeCM:
		presig, keep = s1.Roots, &rx.roots
		rx.leafCount = int(s1.LeafCount)
		batch = rx.leafCount
		// The root count must be consistent with the subtree partition
		// both sides derive from (n, k).
		k := len(s1.Roots) / e.suite.Size()
		sub := CMSubSize(batch, k)
		if (batch+sub-1)/sub != k {
			return e.drop(hdr.Seq, fmt.Errorf("inconsistent CM root count %d for %d messages", k, batch))
		}
	default:
		return e.drop(hdr.Seq, fmt.Errorf("unknown mode %v", s1.Mode))
	}
	// The decoded S1 aliases the datagram, which the transport recycles
	// once Handle returns: the exchange's trust anchor and pre-signatures
	// move into one block the exchange owns.
	block := make([]byte, 0, len(s1.Auth)+len(presig))
	rx.auth = packet.Retain(&block, s1.Auth)
	*keep = packet.Retain(&block, presig)
	rx.delivered = make([]bool, batch)

	var a1 packet.A1
	pair, err := e.ackChain.NextPair()
	if err != nil {
		return e.drop(hdr.Seq, fmt.Errorf("%w: %v", ErrChainExhausted, err))
	}
	rx.ackPair = pair
	e.noteChainGauges()
	// The acknowledgment chain depletes as fast as the peer sends; warn
	// (and auto-rekey, if configured) from the verifier side too.
	if !e.chainLow && e.ackChainIsLow() {
		e.chainLow = true
		e.emit(Event{Kind: EventChainLow})
	}
	a1.AuthIdx = pair.AuthIdx
	a1.Auth = pair.Auth
	a1.KeyIdx = pair.KeyIdx
	if reliable {
		if batch == 1 {
			// Flat pre-ack/pre-nack pair (§3.2.2, Fig. 3). Both secrets
			// share one block, both digests another.
			h := e.suite.Size()
			secrets := make([]byte, 2*h)
			if _, err := rand.Read(secrets); err != nil {
				return e.drop(hdr.Seq, err)
			}
			rx.sack, rx.snack = secrets[:h:h], secrets[h:]
			pre := AppendPreAckDigest(e.suite, make([]byte, 0, 2*h), pair.Key, rx.sack)
			pre = AppendPreNackDigest(e.suite, pre, pair.Key, rx.snack)
			a1.PreAck, a1.PreNack = pre[:h], pre[h:]
		} else {
			// Acknowledgment Merkle Tree (§3.3.3, Fig. 7).
			amt, err := merkle.NewAckTree(e.suite, pair.Key, batch)
			if err != nil {
				return e.drop(hdr.Seq, err)
			}
			rx.amt = amt
			a1.AMTRoot = amt.Root()
			a1.AMTLeaves = uint32(batch)
		}
	}
	raw, err := packet.Encode(e.header(packet.TypeA1, hdr.Seq), &a1)
	if err != nil {
		return e.drop(hdr.Seq, err)
	}
	rx.a1 = raw
	e.storeRx(rx)
	e.outbox = append(e.outbox, raw)
	e.tel.BytesSent.Add(uint64(len(raw)))
	e.tel.SentA1.Inc()
	e.spans.Emit(e.tnow, e.assoc, obs.Key(rx.auth), hdr.Seq, obs.RoleReceiver, obs.StepS1, uint8(rx.mode), obs.VerdictRecv, uint32(batch))
	e.spans.Emit(e.tnow, e.assoc, obs.Key(rx.auth), hdr.Seq, obs.RoleReceiver, obs.StepA1, uint8(rx.mode), obs.VerdictSent, 0)
	return e.takeEvents()
}

// storeRx registers a receiver exchange, evicting the oldest one beyond the
// configured memory bound.
func (e *Endpoint) storeRx(rx *rxExchange) {
	e.rx[rx.seq] = rx
	e.rxOrder = append(e.rxOrder, rx.seq)
	for len(e.rxOrder) > e.cfg.MaxRxExchanges {
		old := e.rxOrder[0]
		e.rxOrder = e.rxOrder[1:]
		delete(e.rx, old)
	}
}

// handleS2 verifies a disclosed message against its buffered pre-signature
// and delivers it; in reliable mode it opens the matching pre-(n)ack.
func (e *Endpoint) handleS2(now time.Time, hdr packet.Header, s2 *packet.S2) []Event {
	e.tel.RecvS2.Inc()
	rx, ok := e.rx[hdr.Seq]
	if !ok {
		return e.drop(hdr.Seq, ErrUnsolicited)
	}
	e.spanKey = obs.Key(rx.auth)
	if s2.Mode != rx.mode || s2.KeyIdx != rx.keyIdx {
		return e.drop(hdr.Seq, ErrUnsolicited)
	}
	idx := int(s2.MsgIndex)
	if idx >= len(rx.delivered) {
		return e.drop(hdr.Seq, ErrUnsolicited)
	}
	// The S2's key element must be the pre-image of this exchange's S1
	// element — verification is pinned to the exchange itself, immune to
	// walker movement and chain rekeys (the paper's "recomputing the
	// MAC" against "the tamper-proof MAC from the S1 packet").
	if rx.key == nil {
		if !hashchain.VerifyLink(e.suite, hashchain.TagS1, hashchain.TagS2, rx.auth, s2.Key, s2.KeyIdx) {
			return e.drop(hdr.Seq, ErrBadAuthElement)
		}
		rx.key = append([]byte(nil), s2.Key...)
	} else if !suite.Equal(rx.key, s2.Key) {
		return e.drop(hdr.Seq, ErrBadAuthElement)
	}
	// The key element is genuine; now check the message against the
	// buffered pre-signature. A mismatch here means the payload was
	// tampered with in transit: in reliable mode that is worth a
	// verifiable nack so the signer retransmits.
	valid := e.verifyS2Payload(rx, hdr, s2)
	if !valid {
		if rx.reliable && !rx.delivered[idx] {
			e.sendA2(rx, idx, false)
		}
		reason := ErrBadMAC
		if rx.mode == packet.ModeM || rx.mode == packet.ModeCM {
			reason = ErrBadProof
		}
		return e.drop(hdr.Seq, reason)
	}
	if rx.delivered[idx] {
		// Duplicate S2 (our A2 was probably lost): re-open the ack.
		if rx.reliable {
			e.sendA2(rx, idx, true)
		}
		return e.takeEvents()
	}
	rx.delivered[idx] = true
	rx.doneCount++
	// In-band rekey announcements are consumed by the protocol layer:
	// the payload carries the peer's fresh anchors, already authenticated
	// by the old chain like any other message.
	if p, ok := DecodeRekey(s2.Payload, e.suite.Size()); ok {
		if err := e.adoptPeerRekey(p); err != nil {
			rx.delivered[idx] = false
			rx.doneCount--
			return e.drop(hdr.Seq, err)
		}
		e.emit(Event{Kind: EventPeerRekeyed, Seq: hdr.Seq, MsgIndex: s2.MsgIndex})
		if rx.reliable {
			e.sendA2(rx, idx, true)
		}
		return e.takeEvents()
	}
	e.tel.Delivered.Inc()
	e.tel.PayloadBytes.Add(uint64(len(s2.Payload)))
	e.tel.PayloadSize.Observe(int64(len(s2.Payload)))
	e.tracer.Trace(e.tnow, telemetry.TraceS2Verified, e.assoc, hdr.Seq, s2.MsgIndex)
	e.spans.Emit(e.tnow, e.assoc, obs.Key(rx.auth), hdr.Seq, obs.RoleReceiver, obs.StepS2, uint8(rx.mode), obs.VerdictDeliver, s2.MsgIndex)
	// The one copy of the delivery path: the application keeps the
	// payload, the transport recycles the datagram it arrived in.
	e.emit(Event{Kind: EventDelivered, Seq: hdr.Seq, MsgIndex: s2.MsgIndex, Payload: bytes.Clone(s2.Payload)})
	if rx.reliable {
		e.sendA2(rx, idx, true)
	}
	return e.takeEvents()
}

// verifyS2Payload checks an S2's payload against the exchange's buffered
// pre-signature material.
//
//alpha:hotpath
func (e *Endpoint) verifyS2Payload(rx *rxExchange, hdr packet.Header, s2 *packet.S2) bool {
	switch rx.mode {
	case packet.ModeBase, packet.ModeC:
		want := packet.Digest(rx.macs, int(s2.MsgIndex), e.suite.Size())
		e.macIn = AppendMACInput(e.macIn[:0], e.assoc, hdr.Seq, s2.MsgIndex, s2.Payload)
		e.parts[0] = e.macIn
		e.macOut = e.suite.MACInto(e.macOut[:0], s2.Key, e.parts[:1]...)
		return suite.Equal(want, e.macOut)
	case packet.ModeM:
		if int(s2.LeafCount) != rx.leafCount {
			return false //alpha:drop-ok verdict helper: handleS2 counts the drop on false
		}
		return merkle.Verify(e.suite, s2.Key, rx.root, MerkleLeafInput(s2.Payload), int(s2.MsgIndex), rx.leafCount, s2.Proof)
	case packet.ModeCM:
		if int(s2.LeafCount) != rx.leafCount {
			return false //alpha:drop-ok verdict helper: handleS2 counts the drop on false
		}
		h := e.suite.Size()
		k := len(rx.roots) / h
		root, leaf, leaves, ok := CMLocate(int(s2.MsgIndex), rx.leafCount, k)
		if !ok || root >= k {
			return false //alpha:drop-ok verdict helper: handleS2 counts the drop on false
		}
		return merkle.Verify(e.suite, s2.Key, packet.Digest(rx.roots, root, h), MerkleLeafInput(s2.Payload), leaf, leaves, s2.Proof)
	default:
		return false
	}
}

// sendA2 opens the pre-ack (ack=true) or pre-nack for message idx.
func (e *Endpoint) sendA2(rx *rxExchange, idx int, ack bool) {
	a2 := packet.A2{
		Mode:     rx.mode,
		KeyIdx:   rx.ackPair.KeyIdx,
		Key:      rx.ackPair.Key,
		MsgIndex: uint32(idx),
		Ack:      ack,
	}
	if rx.amt != nil {
		var proofBuf [512]byte // a depth-16 SHA-256 proof; deeper ones spill to the heap
		o, err := rx.amt.Open(proofBuf[:0], idx, ack)
		if err != nil {
			// An unopenable acknowledgment is an internal-state error, not
			// hostile input, but it must not vanish silently: the peer will
			// retransmit the S2 and land on the duplicate-delivery path.
			e.noteAckFailure(rx, telemetry.ReasonBadAck)
			return
		}
		a2.Mode = rx.mode
		a2.Secret = o.Secret
		a2.Proof = o.Proof
		a2.Other = o.Other
		a2.AMTLeaves = uint32(rx.amt.Messages())
		if a2.Mode != packet.ModeM {
			// The AMT is also used for multi-message ALPHA-C
			// batches; its opening travels in mode-M A2 framing.
			a2.Mode = packet.ModeM
		}
	} else {
		if ack {
			a2.Secret = rx.sack
		} else {
			a2.Secret = rx.snack
		}
		a2.Mode = packet.ModeBase
	}
	if err := e.send(e.header(packet.TypeA2, rx.seq), &a2); err != nil {
		// Encoding failure: the ack this exchange owes never left. Counted
		// for the same reason as above.
		e.noteAckFailure(rx, telemetry.ReasonMalformed)
		return
	}
	e.tel.SentA2.Inc()
	e.spans.Emit(e.tnow, e.assoc, obs.Key(rx.auth), rx.seq, obs.RoleReceiver, obs.StepA2, uint8(rx.mode), obs.VerdictSent, uint32(idx))
}

// noteAckFailure accounts a failed A2 emission: previously a silent return,
// now a reason-coded drop plus a trace line and a drop-verdict span, so the
// I3/I4 conservation invariants see every discarded acknowledgment.
func (e *Endpoint) noteAckFailure(rx *rxExchange, code uint32) {
	e.tel.NoteDrop(code)
	e.tracer.Trace(e.tnow, telemetry.TraceDrop, e.assoc, rx.seq, code)
	e.spans.Emit(e.tnow, e.assoc, obs.Key(rx.auth), rx.seq, obs.RoleReceiver, obs.StepA2, uint8(rx.mode), obs.VerdictDrop, code)
}
