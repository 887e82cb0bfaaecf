// Sender half: queuing messages, building S1/S2 packets, processing A1/A2.

package core

import (
	"fmt"
	"time"

	"alpha/internal/hashchain"
	"alpha/internal/merkle"
	"alpha/internal/obs"
	"alpha/internal/packet"
	"alpha/internal/suite"
	"alpha/internal/telemetry"
)

// outMsg is a queued outgoing message.
type outMsg struct {
	id      uint64
	payload []byte
	sentAt  time.Time // when Send accepted it; basis for ack latency
}

// txState is the sender-side exchange state machine.
type txState int

const (
	txAwaitA1 txState = iota // S1 sent, waiting for the acknowledgment
	txAwaitA2                // S2s sent, waiting for (n)acks (reliable)
	txDone
)

// txExchange tracks one in-flight signature exchange (one S1/A1 round plus
// its S2 payload packets).
type txExchange struct {
	seq   uint32
	state txState
	// mode is pinned at startExchange: an exchange runs its whole lifetime
	// under the profile it was created with, so a runtime SetProfile never
	// mixes modes within one S1/S2 round (the S2s must match what the S1
	// announced).
	mode  packet.Mode
	msgs  []*outMsg
	pair  hashchain.Pair // our signature-chain elements for this exchange
	trees []*merkle.Tree // modes M (one tree) and CM (k subtrees)

	// wire holds the exchange's encoded S1 followed by its S2s, in one
	// buffer sized at startExchange; s1 and s2s slice it. Both stay live
	// for retransmission until the exchange retires, so the buffer is
	// never recycled.
	wire []byte
	s1   []byte   // encoded S1 for retransmission
	s2s  [][]byte // encoded S2 packets, indexed by message

	// Acknowledgment material learned from the A1 (reliable mode).
	// ackAuth is the A1's verified element; the A2's key must hash to it.
	ackAuth   []byte
	ackKeyIdx uint32
	preAck    []byte
	preNack   []byte
	amtRoot   []byte
	amtLeaves int

	acked    []bool
	ackCount int

	retries  int
	deadline time.Time
}

// Send queues payload for integrity-protected transmission and returns a
// message ID that Acked/Nacked/SendFailed events will reference. Messages
// are batched per the configured mode; Poll (or Flush) turns full or
// lingering batches into signature exchanges.
func (e *Endpoint) Send(now time.Time, payload []byte) (uint64, error) {
	if !e.established {
		return 0, ErrNotEstablished
	}
	if len(payload) > packet.MaxPayload {
		return 0, fmt.Errorf("core: payload of %d bytes exceeds %d", len(payload), packet.MaxPayload)
	}
	e.tnow = now.UnixNano()
	e.nextMsgID++
	m := &outMsg{id: e.nextMsgID, payload: append([]byte(nil), payload...), sentAt: now}
	if len(e.queue) == 0 {
		e.queuedAt = now
	}
	e.queue = append(e.queue, m)
	e.flushQueue(now, false)
	return m.id, nil
}

// Flush forces any partially filled batch into an exchange immediately.
func (e *Endpoint) Flush(now time.Time) {
	e.tnow = now.UnixNano()
	e.flushQueue(now, true)
}

// QueueLen returns the number of messages waiting for a batch slot.
func (e *Endpoint) QueueLen() int { return len(e.queue) }

// InFlight returns the number of open signature exchanges.
func (e *Endpoint) InFlight() int { return len(e.tx) }

// flushQueue starts exchanges for queued messages. Unless force is set,
// a partial batch is only flushed after FlushDelay has elapsed. While a
// rekey announcement is in flight no new exchanges start: serializing the
// generation change means verifiers and relays never see two chain
// generations interleaved, which keeps their grace-window logic trivial.
func (e *Endpoint) flushQueue(now time.Time, force bool) {
	if e.rekey != nil {
		return
	}
	for len(e.queue) > 0 && len(e.tx) < e.cfg.MaxOutstanding {
		// Under AutoRekey, the final chain pair is reserved for signing
		// the rekey announcement itself; queued messages wait out the
		// rotation instead of exhausting the chain.
		if e.cfg.AutoRekey && e.cfg.Reliable && e.sigChain.Remaining() < 4 {
			return
		}
		if len(e.queue) < e.cfg.BatchSize && !force {
			if e.cfg.FlushDelay < 0 || now.Sub(e.queuedAt) < e.cfg.FlushDelay {
				return
			}
		}
		n := len(e.queue)
		if n > e.cfg.BatchSize {
			n = e.cfg.BatchSize
		}
		batch := e.queue[:n:n]
		e.queue = e.queue[n:]
		if len(e.queue) > 0 {
			e.queuedAt = now
		}
		if err := e.startExchange(now, batch); err != nil {
			for _, m := range batch {
				e.emit(Event{Kind: EventSendFailed, MsgID: m.id, Err: err})
				e.abortRekey(m.id)
			}
		}
	}
}

// startExchange consumes a signature-chain pair and emits the S1 for a
// batch of messages.
func (e *Endpoint) startExchange(now time.Time, batch []*outMsg) error {
	pair, err := e.sigChain.NextPair()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrChainExhausted, err)
	}
	e.noteChainGauges()
	if !e.chainLow && e.sigChainIsLow() {
		e.chainLow = true
		e.emit(Event{Kind: EventChainLow})
	}
	seq := e.nextSeq
	e.nextSeq++
	x := &txExchange{
		seq:   seq,
		mode:  e.cfg.Mode,
		msgs:  batch,
		pair:  pair,
		acked: make([]bool, len(batch)),
	}
	s1 := packet.S1{
		Mode:    x.mode,
		AuthIdx: pair.AuthIdx,
		Auth:    pair.Auth,
		KeyIdx:  pair.KeyIdx,
	}
	// Pre-signatures are assembled in the endpoint's scratch (macOut as a
	// flat digest run); encoding copies them into the exchange's buffer.
	size := e.suite.Size()
	count := len(batch)
	switch x.mode {
	case packet.ModeBase, packet.ModeC:
		e.macOut = e.macOut[:0]
		for i, m := range batch {
			e.macIn = AppendMACInput(e.macIn[:0], e.assoc, seq, uint32(i), m.payload)
			e.parts[0] = e.macIn
			e.macOut = e.suite.MACInto(e.macOut, pair.Key, e.parts[:1]...)
		}
		s1.MACBlock = e.macOut
	case packet.ModeM:
		msgs := make([][]byte, len(batch))
		for i, m := range batch {
			msgs[i] = MerkleLeafInput(m.payload)
		}
		tree, err := merkle.Build(e.suite, pair.Key, msgs)
		if err != nil {
			return err
		}
		x.trees = []*merkle.Tree{tree}
		s1.LeafCount = uint32(len(batch))
		s1.Root = tree.Root()
	case packet.ModeCM:
		n := len(batch)
		k := e.cfg.CMRoots
		if k > n {
			k = n
		}
		sub := CMSubSize(n, k)
		e.macOut = e.macOut[:0]
		for off := 0; off < n; off += sub {
			end := off + sub
			if end > n {
				end = n
			}
			msgs := make([][]byte, end-off)
			for i := off; i < end; i++ {
				msgs[i-off] = MerkleLeafInput(batch[i].payload)
			}
			tree, err := merkle.Build(e.suite, pair.Key, msgs)
			if err != nil {
				return err
			}
			x.trees = append(x.trees, tree)
			e.macOut = append(e.macOut, tree.Root()...)
		}
		s1.Roots = e.macOut
		s1.LeafCount = uint32(n)
		count = len(x.trees)
	}
	// Size the exchange's wire buffer for the S1 and every S2 up front, so
	// neither encoding reallocates.
	wireLen := packet.S1Size(x.mode, size, count)
	for i, m := range batch {
		wireLen += packet.S2Size(x.mode, size, x.proofDepth(i), len(m.payload))
	}
	raw, err := packet.Append(make([]byte, 0, wireLen), e.header(packet.TypeS1, seq), &s1)
	if err != nil {
		return err
	}
	x.wire = raw
	x.s1 = raw[:len(raw):len(raw)]
	x.deadline = now.Add(e.cfg.RTO)
	e.tx[seq] = x
	e.txOrder = append(e.txOrder, seq)
	e.outbox = append(e.outbox, x.s1)
	e.tel.BytesSent.Add(uint64(len(raw)))
	e.tel.SentS1.Inc()
	e.tracer.Trace(e.tnow, telemetry.TraceS1Sent, e.assoc, seq, uint32(len(batch)))
	e.spans.Emit(e.tnow, e.assoc, obs.Key(pair.Auth), seq, obs.RoleSender, obs.StepS1, uint8(x.mode), obs.VerdictSent, uint32(len(batch)))
	return nil
}

// handleA1 processes the verifier's acknowledgment of an S1: it validates
// the acknowledgment-chain element, records the pre-(n)ack material, and
// releases the exchange's S2 packets.
func (e *Endpoint) handleA1(now time.Time, hdr packet.Header, a1 *packet.A1) []Event {
	e.tel.RecvA1.Inc()
	x, ok := e.tx[hdr.Seq]
	if !ok {
		return e.drop(hdr.Seq, ErrUnsolicited)
	}
	e.spanKey = obs.Key(x.pair.Auth)
	if x.state != txAwaitA1 {
		// §3.2.2: after sending S2 the signer must discard pre-(n)acks
		// arriving in further A1 packets to preserve the temporal
		// separation between pre-ack creation and key disclosure.
		return e.takeEvents()
	}
	if a1.AuthIdx%2 != 1 || a1.KeyIdx != a1.AuthIdx+1 {
		return e.drop(hdr.Seq, ErrBadAuthElement)
	}
	if err := e.verifyPeerAck(a1.Auth, a1.AuthIdx); err != nil {
		return e.drop(hdr.Seq, fmt.Errorf("%w: %v", ErrBadAuthElement, err))
	}
	e.tracer.Trace(e.tnow, telemetry.TraceA1Recv, e.assoc, hdr.Seq, 0)
	e.spans.Emit(e.tnow, e.assoc, obs.Key(x.pair.Auth), hdr.Seq, obs.RoleSender, obs.StepA1, uint8(x.mode), obs.VerdictRecv, 0)
	if e.cfg.Reliable {
		// The decoded A1 aliases the datagram: the element and the
		// pre-(n)ack material the A2s will be checked against move into
		// one block the exchange owns.
		x.ackKeyIdx = a1.KeyIdx
		block := make([]byte, 0, len(a1.Auth)+len(a1.PreAck)+len(a1.PreNack)+len(a1.AMTRoot))
		x.ackAuth = packet.Retain(&block, a1.Auth)
		switch {
		case a1.PreAck != nil && a1.PreNack != nil && len(x.msgs) == 1:
			x.preAck = packet.Retain(&block, a1.PreAck)
			x.preNack = packet.Retain(&block, a1.PreNack)
		case a1.AMTRoot != nil && int(a1.AMTLeaves) == len(x.msgs):
			x.amtRoot = packet.Retain(&block, a1.AMTRoot)
			x.amtLeaves = int(a1.AMTLeaves)
		default:
			return e.drop(hdr.Seq, fmt.Errorf("%w: missing pre-acknowledgment material", ErrBadAck))
		}
	}
	if err := e.sendS2s(now, x); err != nil {
		return e.drop(hdr.Seq, err)
	}
	return e.takeEvents()
}

// proofDepth returns the Merkle proof depth of message i's S2 (0 outside
// modes M and CM).
func (x *txExchange) proofDepth(i int) int {
	switch x.mode {
	case packet.ModeM:
		return x.trees[0].ProofDepth()
	case packet.ModeCM:
		if root, _, _, ok := CMLocate(i, len(x.msgs), len(x.trees)); ok {
			return x.trees[root].ProofDepth()
		}
	}
	return 0
}

// sendS2s encodes every S2 packet of the exchange into the rest of its wire
// buffer and transmits them.
func (e *Endpoint) sendS2s(now time.Time, x *txExchange) error {
	x.s2s = make([][]byte, len(x.msgs))
	var proofBuf [512]byte // a depth-16 SHA-256 proof; deeper ones spill to the heap
	for i, m := range x.msgs {
		s2 := packet.S2{
			Mode:     x.mode,
			KeyIdx:   x.pair.KeyIdx,
			Key:      x.pair.Key,
			MsgIndex: uint32(i),
			Payload:  m.payload,
		}
		var err error
		switch x.mode {
		case packet.ModeM:
			s2.LeafCount = uint32(x.trees[0].Leaves())
			s2.Proof, err = x.trees[0].AppendProof(proofBuf[:0], i)
		case packet.ModeCM:
			root, leaf, _, ok := CMLocate(i, len(x.msgs), len(x.trees))
			if !ok {
				return fmt.Errorf("core: CM locate failed for message %d", i)
			}
			s2.LeafCount = uint32(len(x.msgs))
			s2.Proof, err = x.trees[root].AppendProof(proofBuf[:0], leaf)
		}
		if err != nil {
			return err
		}
		start := len(x.wire)
		if x.wire, err = packet.Append(x.wire, e.header(packet.TypeS2, x.seq), &s2); err != nil {
			return err
		}
		raw := x.wire[start:len(x.wire):len(x.wire)]
		x.s2s[i] = raw
		e.outbox = append(e.outbox, raw)
		e.tel.BytesSent.Add(uint64(len(raw)))
		e.tel.SentS2.Inc()
	}
	e.tracer.Trace(e.tnow, telemetry.TraceS2Sent, e.assoc, x.seq, uint32(len(x.msgs)))
	e.spans.Emit(e.tnow, e.assoc, obs.Key(x.pair.Auth), x.seq, obs.RoleSender, obs.StepS2, uint8(x.mode), obs.VerdictSent, uint32(len(x.msgs)))
	if e.cfg.Reliable {
		x.state = txAwaitA2
		x.retries = 0
		x.deadline = now.Add(e.cfg.RTO)
	} else {
		e.finishExchange(x)
	}
	return nil
}

// finishExchange retires a completed exchange.
func (e *Endpoint) finishExchange(x *txExchange) {
	x.state = txDone
	x.deadline = time.Time{}
	delete(e.tx, x.seq)
	for i, seq := range e.txOrder {
		if seq == x.seq {
			e.txOrder = append(e.txOrder[:i], e.txOrder[i+1:]...)
			break
		}
	}
}

// handleA2 processes a pre-(n)ack opening from the verifier.
func (e *Endpoint) handleA2(now time.Time, hdr packet.Header, a2 *packet.A2) []Event {
	e.tel.RecvA2.Inc()
	x, ok := e.tx[hdr.Seq]
	if !ok || x.state != txAwaitA2 {
		return e.drop(hdr.Seq, ErrUnsolicited)
	}
	e.spanKey = obs.Key(x.pair.Auth)
	if int(a2.MsgIndex) >= len(x.msgs) {
		return e.drop(hdr.Seq, fmt.Errorf("%w: message index out of range", ErrBadAck))
	}
	if a2.KeyIdx != x.ackKeyIdx || a2.KeyIdx%2 != 0 {
		return e.drop(hdr.Seq, fmt.Errorf("%w: key index mismatch", ErrBadAck))
	}
	// The A2's key element must be the pre-image of this exchange's A1
	// element: verification pinned to the exchange, immune to rekeys.
	if x.ackAuth == nil || !hashchain.VerifyLink(e.suite, hashchain.TagA1, hashchain.TagA2, x.ackAuth, a2.Key, a2.KeyIdx) {
		return e.drop(hdr.Seq, fmt.Errorf("%w: key element does not extend the exchange's A1", ErrBadAck))
	}
	if !e.verifyAckOpening(x, a2) {
		return e.drop(hdr.Seq, ErrBadAck)
	}
	if x.acked[a2.MsgIndex] {
		return e.takeEvents() // duplicate A2
	}
	e.spans.Emit(e.tnow, e.assoc, obs.Key(x.pair.Auth), hdr.Seq, obs.RoleSender, obs.StepA2, uint8(x.mode), obs.VerdictRecv, a2.MsgIndex)
	x.acked[a2.MsgIndex] = true
	x.ackCount++
	m := x.msgs[a2.MsgIndex]
	if a2.Ack {
		// The rekey announcement is protocol-internal: its verified ack
		// commits the chain swap and surfaces as EventRekeyed, not as an
		// application acknowledgment.
		if e.rekey != nil && e.rekey.msgID == m.id {
			e.maybeCompleteRekey(m.id)
			if x.ackCount == len(x.msgs) {
				e.finishExchange(x)
			}
			return e.takeEvents()
		}
		e.tel.Acked.Inc()
		if !m.sentAt.IsZero() {
			lat := now.Sub(m.sentAt)
			e.tel.AckLatencyNS.Add(uint64(lat))
			e.tel.AckLatencyMaxNS.SetMax(uint64(lat))
			e.tel.AckLatency.Observe(int64(lat))
		}
		e.emit(Event{Kind: EventAcked, MsgID: m.id, Seq: x.seq, MsgIndex: a2.MsgIndex})
	} else {
		e.tel.Nacked.Inc()
		e.emit(Event{Kind: EventNacked, MsgID: m.id, Seq: x.seq, MsgIndex: a2.MsgIndex})
		// A verified nack means the S2 arrived damaged or not at all;
		// retransmit it immediately (selective repeat, §3.3.3).
		x.acked[a2.MsgIndex] = false
		x.ackCount--
		e.retransmitS2(x, int(a2.MsgIndex))
	}
	if x.ackCount == len(x.msgs) {
		e.finishExchange(x)
	}
	return e.takeEvents()
}

// verifyAckOpening checks an A2 against the pre-(n)ack material buffered
// from the exchange's A1.
func (e *Endpoint) verifyAckOpening(x *txExchange, a2 *packet.A2) bool {
	switch {
	case x.preAck != nil:
		if a2.MsgIndex != 0 {
			return false
		}
		if a2.Ack {
			e.macOut = AppendPreAckDigest(e.suite, e.macOut[:0], a2.Key, a2.Secret)
			return equalDigest(e.macOut, x.preAck)
		}
		e.macOut = AppendPreNackDigest(e.suite, e.macOut[:0], a2.Key, a2.Secret)
		return equalDigest(e.macOut, x.preNack)
	case x.amtRoot != nil:
		o := merkle.Opening{
			Index:  a2.MsgIndex,
			Ack:    a2.Ack,
			Secret: a2.Secret,
			Proof:  a2.Proof,
			Other:  a2.Other,
		}
		return merkle.VerifyOpening(e.suite, a2.Key, x.amtRoot, x.amtLeaves, &o)
	default:
		return false
	}
}

// retransmitS2 re-queues one S2 packet.
func (e *Endpoint) retransmitS2(x *txExchange, i int) {
	if x.s2s == nil || i >= len(x.s2s) {
		return
	}
	e.outbox = append(e.outbox, x.s2s[i])
	e.tel.BytesSent.Add(uint64(len(x.s2s[i])))
	e.tel.Retransmits.Inc()
}

// pollExchanges fires retransmission timers.
func (e *Endpoint) pollExchanges(now time.Time) {
	for _, seq := range append([]uint32(nil), e.txOrder...) {
		x, ok := e.tx[seq]
		if !ok || x.deadline.IsZero() || now.Before(x.deadline) {
			continue
		}
		if x.retries >= e.cfg.MaxRetries {
			for i, m := range x.msgs {
				if !x.acked[i] {
					e.emit(Event{Kind: EventSendFailed, MsgID: m.id, Seq: x.seq, MsgIndex: uint32(i), Err: fmt.Errorf("alpha: retransmission limit reached")})
					e.abortRekey(m.id)
				}
			}
			e.finishExchange(x)
			continue
		}
		x.retries++
		x.deadline = now.Add(backoff(e.cfg.RTO, x.retries))
		switch x.state {
		case txAwaitA1:
			e.outbox = append(e.outbox, x.s1)
			e.tel.BytesSent.Add(uint64(len(x.s1)))
			e.tel.Retransmits.Inc()
		case txAwaitA2:
			for i := range x.msgs {
				if !x.acked[i] {
					e.retransmitS2(x, i)
				}
			}
		}
	}
}

// backoff doubles the retransmission timeout per retry, capped at 16×RTO:
// the paper calls for "robust and fast retransmission" of the small control
// packets (§3.5), so unbounded exponential backoff would be wrong for the
// lossy networks ALPHA targets.
func backoff(rto time.Duration, retries int) time.Duration {
	if retries > 4 {
		retries = 4
	}
	return rto << uint(retries)
}

// equalDigest compares two digests in constant time.
func equalDigest(a, b []byte) bool {
	return len(a) > 0 && suite.Equal(a, b)
}
