// Endpoint construction, handshake handling, datagram dispatch and timers.

package core

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"alpha/internal/hashchain"
	"alpha/internal/obs"
	"alpha/internal/packet"
	"alpha/internal/suite"
	"alpha/internal/telemetry"
)

// FlagInitiator marks packets sent by the association's initiator so that
// responders and relays can attribute them to the correct chain set without
// relying on network addresses.
const FlagInitiator = 1 << 2

// Endpoint is one end of an ALPHA association. It is not safe for
// concurrent use; transports serialize access.
type Endpoint struct {
	cfg   Config
	suite suite.Suite

	assoc       uint64
	initiator   bool
	established bool
	hsRetries   int
	hsDeadline  time.Time
	hsPacket    []byte // encoded local HS for retransmission

	// Local chains: signing our outgoing channel, acknowledging our
	// incoming one.
	sigChain hashchain.Owner
	ackChain hashchain.Owner

	// Walkers over the peer's chains. The prev* walkers are retained
	// during a rekey grace window so that a peer that announced new
	// anchors but failed to commit (lost ack, exhausted retries) can
	// still be verified; see verifyPeerSig.
	peerSig     *hashchain.Walker
	peerAck     *hashchain.Walker
	prevPeerSig *hashchain.Walker
	prevPeerAck *hashchain.Walker

	// rekey tracks an in-flight local chain rotation.
	rekey *rekeyState

	// Sender half.
	nextSeq   uint32
	nextMsgID uint64
	queue     []*outMsg
	queuedAt  time.Time
	tx        map[uint32]*txExchange
	txOrder   []uint32

	// Receiver half.
	rx      map[uint32]*rxExchange
	rxOrder []uint32

	outbox   [][]byte
	events   []Event
	chainLow bool
	nonce    []byte

	// Pre-admitted peer anchors: installed by the transport when an
	// admission token bound the initiator's anchors, letting adoptPeer
	// skip the §3.4 signature verification for exactly those anchors.
	preSig, preAck []byte

	// Hot-path scratch: MAC inputs and computed MACs are assembled here
	// instead of freshly allocated per message. Valid only within one
	// MAC-build-or-verify step; the endpoint is single-threaded by
	// contract so no locking is needed.
	macIn  []byte
	macOut []byte
	parts  [4][]byte

	// tel holds the atomic counters behind Stats(): the endpoint's owning
	// goroutine increments while exporters and Stats() read concurrently.
	// tracer is the optional lifecycle tracer from Config; tnow caches the
	// caller-supplied clock of the current entry point (the engine is
	// sans-IO, so traces carry whatever clock the caller runs on).
	tel    telemetry.EndpointMetrics
	tracer *telemetry.Tracer
	tnow   int64

	// Hop-by-hop span state: spans is the optional ring from Config;
	// spanKey/spanStep/spanRole are per-packet scratch set at dispatch so
	// the central drop path can attribute a discard to the exchange and
	// step it belonged to (spanKey stays 0 until a chain element of the
	// current packet's exchange has been seen).
	spans    *obs.SpanRing
	spanKey  uint32
	spanStep uint8
	spanRole uint8
}

// Stats counts endpoint activity, exported for experiments and examples.
type Stats struct {
	SentS1, SentA1, SentS2, SentA2     uint64
	RecvS1, RecvA1, RecvS2, RecvA2     uint64
	Retransmits                        uint64
	Delivered, Acked, Nacked, Dropped  uint64
	BytesSent, BytesReceived, Payloads uint64
	// AckLatencySum/Max track Send-to-verified-ack time (reliable mode);
	// mean latency = AckLatencySum / Acked.
	AckLatencySum time.Duration
	AckLatencyMax time.Duration
}

// MeanAckLatency returns the average Send-to-ack latency, or 0 before the
// first acknowledgment.
func (s Stats) MeanAckLatency() time.Duration {
	if s.Acked == 0 {
		return 0
	}
	return s.AckLatencySum / time.Duration(s.Acked)
}

// Stats returns a snapshot of the endpoint's counters. All fields are read
// atomically, so Stats is safe to call from any goroutine while the
// endpoint is live (individual counters may be from slightly different
// instants, the usual metric-snapshot semantics).
func (e *Endpoint) Stats() Stats {
	m := &e.tel
	return Stats{
		SentS1:        m.SentS1.Load(),
		SentA1:        m.SentA1.Load(),
		SentS2:        m.SentS2.Load(),
		SentA2:        m.SentA2.Load(),
		RecvS1:        m.RecvS1.Load(),
		RecvA1:        m.RecvA1.Load(),
		RecvS2:        m.RecvS2.Load(),
		RecvA2:        m.RecvA2.Load(),
		Retransmits:   m.Retransmits.Load(),
		Delivered:     m.Delivered.Load(),
		Acked:         m.Acked.Load(),
		Nacked:        m.Nacked.Load(),
		Dropped:       m.Dropped.Load(),
		BytesSent:     m.BytesSent.Load(),
		BytesReceived: m.BytesReceived.Load(),
		Payloads:      m.PayloadBytes.Load(),
		AckLatencySum: time.Duration(m.AckLatencyNS.Load()),
		AckLatencyMax: time.Duration(m.AckLatencyMaxNS.Load()),
	}
}

// Telemetry returns the endpoint's live metric set for export (e.g.
// Exporter.Register("alpha_endpoint", ep.Telemetry())). The returned set
// keeps counting as the endpoint runs.
func (e *Endpoint) Telemetry() *telemetry.EndpointMetrics { return &e.tel }

// SetSpans installs (or replaces) the hop-by-hop span ring. Transports use
// this to rebind an endpoint to its association's flight-recorder ring once
// the association ID is known. Must be called from the endpoint's owning
// goroutine.
func (e *Endpoint) SetSpans(r *obs.SpanRing) { e.spans = r }

// NewEndpoint creates an endpoint with fresh hash chains. The endpoint
// becomes usable after a handshake: initiators call StartHandshake and feed
// the HS2 response to Handle; responders simply Handle the incoming HS1.
func NewEndpoint(cfg Config) (*Endpoint, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := &Endpoint{
		cfg:     cfg,
		suite:   cfg.Suite,
		nextSeq: 1,
		tx:      make(map[uint32]*txExchange),
		rx:      make(map[uint32]*rxExchange),
		tracer:  cfg.Tracer,
		spans:   cfg.Spans,
	}
	e.tel.Init()
	e.tel.Mode.Set(int64(cfg.Mode))
	e.tel.BatchSize.Set(int64(cfg.BatchSize))
	var err error
	if e.sigChain, err = newOwner(cfg, hashchain.TagS1, hashchain.TagS2); err != nil {
		return nil, err
	}
	if e.ackChain, err = newOwner(cfg, hashchain.TagA1, hashchain.TagA2); err != nil {
		return nil, err
	}
	e.nonce = make([]byte, cfg.Suite.Size())
	if _, err := rand.Read(e.nonce); err != nil {
		return nil, fmt.Errorf("core: generating nonce: %w", err)
	}
	e.noteChainGauges()
	return e, nil
}

// noteChainGauges refreshes the chain-pressure gauges from the live chain
// state. Called wherever a chain element is consumed or a chain is swapped,
// so exporters watch depletion approach long before EventChainLow fires.
func (e *Endpoint) noteChainGauges() {
	e.tel.SigChainRemaining.Set(int64(e.sigChain.Remaining()))
	e.tel.SigChainLen.Set(int64(e.sigChain.Len()))
	e.tel.AckChainRemaining.Set(int64(e.ackChain.Remaining()))
	e.tel.AckChainLen.Set(int64(e.ackChain.Len()))
}

func newOwner(cfg Config, tagOdd, tagEven []byte) (hashchain.Owner, error) {
	secret := make([]byte, cfg.Suite.Size())
	if _, err := rand.Read(secret); err != nil {
		return nil, fmt.Errorf("core: generating chain secret: %w", err)
	}
	if cfg.CheckpointInterval > 0 {
		return hashchain.NewCheckpoint(cfg.Suite, tagOdd, tagEven, secret, cfg.ChainLen, cfg.CheckpointInterval)
	}
	return hashchain.New(cfg.Suite, tagOdd, tagEven, secret, cfg.ChainLen)
}

// Assoc returns the association identifier (0 before the handshake).
func (e *Endpoint) Assoc() uint64 { return e.assoc }

// Established reports whether the handshake has completed.
func (e *Endpoint) Established() bool { return e.established }

// Initiator reports whether this endpoint started the handshake.
func (e *Endpoint) Initiator() bool { return e.initiator }

// ChainRemaining returns how many signature-chain elements are undisclosed.
func (e *Endpoint) ChainRemaining() int { return e.sigChain.Remaining() }

// StartHandshake begins an association as initiator. The returned HS1
// packet must be delivered to the responder; it is also queued internally
// for retransmission until the HS2 arrives.
func (e *Endpoint) StartHandshake(now time.Time) ([]byte, error) {
	if e.established || e.assoc != 0 {
		return nil, fmt.Errorf("core: handshake already started")
	}
	var aid [8]byte
	if _, err := rand.Read(aid[:]); err != nil {
		return nil, fmt.Errorf("core: generating association id: %w", err)
	}
	e.assoc = binary.BigEndian.Uint64(aid[:])
	if e.assoc == 0 {
		e.assoc = 1
	}
	e.initiator = true
	hs, err := e.buildHandshake(true)
	if err != nil {
		return nil, err
	}
	hdr := e.header(packet.TypeHS1, 0)
	if hs.HasToken {
		hdr.Flags |= packet.FlagToken
	}
	raw, err := packet.Encode(hdr, hs)
	if err != nil {
		return nil, err
	}
	e.hsPacket = raw
	e.hsDeadline = now.Add(e.cfg.RTO)
	e.tel.BytesSent.Add(uint64(len(raw)))
	return raw, nil
}

// header builds the common header for an outgoing packet.
func (e *Endpoint) header(t packet.Type, seq uint32) packet.Header {
	var flags uint8
	if e.initiator {
		flags |= FlagInitiator
	}
	if e.cfg.Reliable {
		flags |= packet.FlagReliable
	}
	if e.cfg.Identity != nil {
		flags |= packet.FlagProtected
	}
	return packet.Header{
		Type:  t,
		Suite: e.suite.ID(),
		Flags: flags,
		Assoc: e.assoc,
		Seq:   seq,
	}
}

// buildHandshake assembles the local HS body, signing the anchors when a
// protected handshake is configured.
func (e *Endpoint) buildHandshake(initiator bool) (*packet.Handshake, error) {
	hs := &packet.Handshake{
		Initiator: initiator,
		SigAnchor: e.sigChain.Anchor(),
		AckAnchor: e.ackChain.Anchor(),
		ChainLen:  uint32(e.cfg.ChainLen),
		Nonce:     e.nonce,
	}
	if e.cfg.Identity != nil {
		if err := signHandshake(e.cfg.Identity, e.assoc, hs); err != nil {
			return nil, err
		}
	}
	if initiator && e.cfg.TokenSource != nil {
		token, err := e.cfg.TokenSource(hs.SigAnchor, hs.AckAnchor)
		if err != nil {
			return nil, fmt.Errorf("core: token source: %w", err)
		}
		hs.HasToken = true
		hs.Token = token
	}
	return hs, nil
}

// Handle processes one received datagram, appending any response packets to
// the internal outbox (drained by Poll) and returning events for the
// application. Malformed or unverifiable packets are reported as
// EventDropped; Handle only returns an error for misuse, never for hostile
// input.
func (e *Endpoint) Handle(now time.Time, datagram []byte) ([]Event, error) {
	e.tnow = now.UnixNano()
	e.tel.BytesReceived.Add(uint64(len(datagram)))
	return e.handleRaw(now, datagram, true), nil
}

// handleRaw decodes and dispatches one packet; allowBundle guards against
// nested bundles (the codec rejects them too, belt and braces). The decoded
// packet lives on this frame and aliases datagram: the handlers copy
// whatever they keep past the call.
func (e *Endpoint) handleRaw(now time.Time, datagram []byte, allowBundle bool) []Event {
	e.spanStep, e.spanRole, e.spanKey = 0, 0, 0
	var p packet.Packet
	if err := p.Decode(datagram); err != nil {
		return e.drop(0, fmt.Errorf("undecodable packet: %w", err))
	}
	hdr := p.Header
	if hdr.Suite != e.suite.ID() {
		return e.drop(hdr.Seq, fmt.Errorf("%w: %d", errSuiteMismatch, hdr.Suite))
	}
	switch hdr.Type {
	case packet.TypeBundle:
		if !allowBundle {
			return e.drop(hdr.Seq, packet.ErrBadType)
		}
		// Each sub-packet decodes into its own frame's Packet, so the
		// bundle's packet list survives the recursion.
		var evs []Event
		for _, raw := range p.Bundle.Packets {
			evs = append(evs, e.handleRaw(now, raw, false)...)
		}
		return evs
	case packet.TypeHS1, packet.TypeHS2:
		e.noteSpanStep(obs.StepHS, 0)
		return e.handleHandshake(now, hdr, &p.Handshake)
	case packet.TypeS1:
		e.noteSpanStep(obs.StepS1, obs.RoleReceiver)
	case packet.TypeA1:
		e.noteSpanStep(obs.StepA1, obs.RoleSender)
	case packet.TypeS2:
		e.noteSpanStep(obs.StepS2, obs.RoleReceiver)
	case packet.TypeA2:
		e.noteSpanStep(obs.StepA2, obs.RoleSender)
	default:
		return e.drop(hdr.Seq, packet.ErrBadType)
	}
	if err := e.checkDataPacket(hdr); err != nil {
		return e.drop(hdr.Seq, err)
	}
	switch hdr.Type {
	case packet.TypeS1:
		return e.handleS1(now, hdr, &p.S1)
	case packet.TypeA1:
		return e.handleA1(now, hdr, &p.A1)
	case packet.TypeS2:
		return e.handleS2(now, hdr, &p.S2)
	default:
		return e.handleA2(now, hdr, &p.A2)
	}
}

// noteSpanStep records which protocol step (and which of the endpoint's two
// halves) the packet being dispatched belongs to, so a drop span names the
// step it interrupted. The correlation key resets until the exchange is
// identified. A role of 0 means "whichever half"; the drop path substitutes
// the receiver role, which is where unattributable packets die.
func (e *Endpoint) noteSpanStep(step, role uint8) {
	e.spanStep, e.spanRole, e.spanKey = step, role, 0
}

// checkDataPacket performs the checks common to S1/A1/S2/A2 before
// dispatching, returning the drop reason of a packet that fails them.
func (e *Endpoint) checkDataPacket(hdr packet.Header) error {
	if !e.established {
		return ErrNotEstablished
	}
	if hdr.Assoc != e.assoc {
		return ErrUnknownAssoc
	}
	// A packet must come from the opposite side of the association.
	if (hdr.Flags&FlagInitiator != 0) == e.initiator {
		return ErrBadDirection
	}
	return nil
}

var errSuiteMismatch = errors.New("alpha: suite mismatch")

// reasonCode maps a drop error onto the telemetry reason code carried in
// TraceDrop events, so trace lines and counters name failures identically.
func reasonCode(err error) uint32 {
	var parseErr *packet.ParseError
	switch {
	case err == nil:
		return telemetry.ReasonNone
	case errors.As(err, &parseErr):
		return telemetry.ReasonMalformed
	case errors.Is(err, ErrUnknownAssoc):
		return telemetry.ReasonUnknownAssoc
	case errors.Is(err, ErrBadAuthElement):
		return telemetry.ReasonBadElement
	case errors.Is(err, ErrBadMAC), errors.Is(err, ErrBadProof):
		return telemetry.ReasonBadPayload
	case errors.Is(err, ErrUnsolicited):
		return telemetry.ReasonUnsolicited
	case errors.Is(err, ErrBadAck):
		return telemetry.ReasonBadAck
	case errors.Is(err, ErrNotEstablished):
		return telemetry.ReasonNotEstablished
	case errors.Is(err, ErrChainExhausted):
		return telemetry.ReasonChainExhausted
	case errors.Is(err, ErrBadDirection):
		return telemetry.ReasonBadDirection
	case errors.Is(err, ErrBadHandshake):
		return telemetry.ReasonBadHandshake
	case errors.Is(err, errSuiteMismatch):
		return telemetry.ReasonSuiteMismatch
	default:
		return telemetry.ReasonMalformed
	}
}

// drop records a dropped packet and returns the corresponding event slice.
func (e *Endpoint) drop(seq uint32, reason error) []Event {
	code := reasonCode(reason)
	e.tel.NoteDrop(code)
	e.tracer.Trace(e.tnow, telemetry.TraceDrop, e.assoc, seq, code)
	role := e.spanRole
	if role == 0 {
		role = obs.RoleReceiver
	}
	e.spans.Emit(e.tnow, e.assoc, e.spanKey, seq, role, e.spanStep, uint8(e.cfg.Mode), obs.VerdictDrop, code)
	e.spanStep, e.spanRole, e.spanKey = 0, 0, 0
	ev := Event{Kind: EventDropped, Seq: seq, Err: reason}
	e.events = append(e.events, ev)
	evs := e.events
	e.events = nil
	return evs
}

// emit queues an event to be returned from the current Handle/Poll call.
func (e *Endpoint) emit(ev Event) { e.events = append(e.events, ev) }

// send encodes and queues a packet on the outbox.
func (e *Endpoint) send(hdr packet.Header, msg packet.Message) error {
	raw, err := packet.Encode(hdr, msg)
	if err != nil {
		return err
	}
	e.outbox = append(e.outbox, raw)
	e.tel.BytesSent.Add(uint64(len(raw)))
	return nil
}

// takeEvents returns and clears the pending event queue.
func (e *Endpoint) takeEvents() []Event {
	evs := e.events
	e.events = nil
	return evs
}

// handleHandshake processes HS1 (as responder) and HS2 (as initiator).
func (e *Endpoint) handleHandshake(now time.Time, hdr packet.Header, hs *packet.Handshake) []Event {
	switch {
	case hdr.Type == packet.TypeHS1 && !e.initiator:
		if e.established {
			// Duplicate HS1: retransmit our HS2 so a lost response
			// does not deadlock the initiator.
			if hdr.Assoc == e.assoc && e.hsPacket != nil {
				e.outbox = append(e.outbox, e.hsPacket)
				e.tel.BytesSent.Add(uint64(len(e.hsPacket)))
			}
			return e.takeEvents()
		}
		if err := e.adoptPeer(hdr, hs); err != nil {
			return e.drop(0, err)
		}
		e.assoc = hdr.Assoc
		resp, err := e.buildHandshake(false)
		if err != nil {
			return e.drop(0, err)
		}
		raw, err := packet.Encode(e.header(packet.TypeHS2, 0), resp)
		if err != nil {
			return e.drop(0, err)
		}
		e.hsPacket = raw
		e.outbox = append(e.outbox, raw)
		e.tel.BytesSent.Add(uint64(len(raw)))
		e.established = true
		e.emit(Event{Kind: EventEstablished})
		return e.takeEvents()

	case hdr.Type == packet.TypeHS2 && e.initiator:
		if e.established {
			return e.takeEvents() // duplicate HS2
		}
		if hdr.Assoc != e.assoc {
			return e.drop(0, ErrUnknownAssoc)
		}
		if err := e.adoptPeer(hdr, hs); err != nil {
			return e.drop(0, err)
		}
		e.established = true
		e.hsPacket = nil
		e.emit(Event{Kind: EventEstablished})
		return e.takeEvents()

	default:
		return e.drop(0, fmt.Errorf("%w: unexpected %v", ErrBadHandshake, hdr.Type))
	}
}

// PreAdmit records anchors an admission token has already authenticated
// for this association's initiator. A subsequent HS1 carrying exactly
// these anchors skips the §3.4 signature verification (the token bound
// them to the client out of band). Must be called from the endpoint's
// owning goroutine before the HS1 is handled.
func (e *Endpoint) PreAdmit(sigAnchor, ackAnchor []byte) {
	e.preSig = append(e.preSig[:0], sigAnchor...)
	e.preAck = append(e.preAck[:0], ackAnchor...)
}

// preAdmitted reports whether the handshake's anchors are exactly the
// pre-admitted ones.
func (e *Endpoint) preAdmitted(hs *packet.Handshake) bool {
	return len(e.preSig) > 0 &&
		suite.Equal(e.preSig, hs.SigAnchor) && suite.Equal(e.preAck, hs.AckAnchor)
}

// adoptPeer validates a peer handshake body and installs walkers over the
// peer's chains.
func (e *Endpoint) adoptPeer(hdr packet.Header, hs *packet.Handshake) error {
	if len(hs.SigAnchor) != e.suite.Size() || len(hs.AckAnchor) != e.suite.Size() {
		return fmt.Errorf("%w: anchor size", ErrBadHandshake)
	}
	if hs.ChainLen == 0 || hs.ChainLen > 1<<24 {
		return fmt.Errorf("%w: chain length %d", ErrBadHandshake, hs.ChainLen)
	}
	switch {
	case e.preAdmitted(hs):
		// The admission token already bound exactly these anchors to the
		// client (one symmetric decrypt at the transport), so the §3.4
		// asymmetric verification would re-prove what the token proved.
	case hdr.Flags&packet.FlagProtected != 0 || hs.Scheme != 0:
		if err := verifyHandshake(hdr.Assoc, hs, e.cfg.VerifyPeer); err != nil {
			return err
		}
	case e.cfg.VerifyPeer != nil:
		return fmt.Errorf("%w: peer did not sign anchors", ErrBadHandshake)
	}
	var err error
	if e.peerSig, err = hashchain.NewSignatureWalker(e.suite, hs.SigAnchor); err != nil {
		return err
	}
	if e.peerAck, err = hashchain.NewAcknowledgmentWalker(e.suite, hs.AckAnchor); err != nil {
		return err
	}
	return nil
}

// Poll drives timers and flushes batched work. It returns the datagrams to
// transmit and any events raised since the last call.
func (e *Endpoint) Poll(now time.Time) ([][]byte, []Event) {
	e.tnow = now.UnixNano()
	// Handshake retransmission (initiator only: responder HS2 resends
	// are triggered by duplicate HS1s).
	if !e.established && e.initiator && e.hsPacket != nil && !e.hsDeadline.IsZero() && !now.Before(e.hsDeadline) {
		if e.hsRetries < e.cfg.MaxRetries {
			e.hsRetries++
			e.tel.Retransmits.Inc()
			e.outbox = append(e.outbox, e.hsPacket)
			e.tel.BytesSent.Add(uint64(len(e.hsPacket)))
			e.hsDeadline = now.Add(backoff(e.cfg.RTO, e.hsRetries))
		}
	}
	if e.established {
		e.flushQueue(now, false)
		e.pollExchanges(now)
		if e.cfg.AutoRekey && e.cfg.Reliable && e.chainLow && e.rekey == nil &&
			len(e.tx) == 0 {
			if _, err := e.Rekey(now); err != nil {
				// A failed attempt (e.g. too few elements left to
				// sign the announcement) will not get better;
				// surface it once and stop retrying.
				e.chainLow = false
				e.emit(Event{Kind: EventSendFailed, Err: fmt.Errorf("alpha: auto-rekey: %w", err)})
			}
		}
	}
	out := e.outbox
	e.outbox = nil
	if e.cfg.Coalesce && len(out) > 1 {
		out = e.coalesce(out)
	}
	return out, e.takeEvents()
}

// coalesce greedily packs consecutive outgoing packets into bundles of at
// most CoalesceLimit bytes (§3.2.1's combined transmissions). Handshake
// packets travel alone: the responder may not know the association yet.
func (e *Endpoint) coalesce(raws [][]byte) [][]byte {
	result := make([][]byte, 0, len(raws))
	var group [][]byte
	size := packet.HeaderSize + 1
	flush := func() {
		switch len(group) {
		case 0:
		case 1:
			result = append(result, group[0])
		default:
			b, err := packet.EncodeBundle(e.suite.ID(), e.assoc, e.header(packet.TypeBundle, 0).Flags, group)
			if err != nil {
				result = append(result, group...)
			} else {
				result = append(result, b)
			}
		}
		group = nil
		size = packet.HeaderSize + 1
	}
	for _, raw := range raws {
		if len(raw) >= packet.HeaderSize && (packet.Type(raw[3]) == packet.TypeHS1 || packet.Type(raw[3]) == packet.TypeHS2) {
			flush()
			result = append(result, raw)
			continue
		}
		if len(group) == packet.MaxBundlePackets || (len(group) > 0 && size+2+len(raw) > e.cfg.CoalesceLimit) {
			flush()
		}
		group = append(group, raw)
		size += 2 + len(raw)
	}
	flush()
	return result
}

// NextTimeout returns the earliest deadline the caller should Poll at.
func (e *Endpoint) NextTimeout() (time.Time, bool) {
	var min time.Time
	add := func(t time.Time) {
		if t.IsZero() {
			return
		}
		if min.IsZero() || t.Before(min) {
			min = t
		}
	}
	if !e.established && e.initiator {
		add(e.hsDeadline)
	}
	// The flush deadline only matters while an exchange slot is free and
	// no rekey is serializing the queue; otherwise the queue drains on
	// exchange completions and timers instead.
	if len(e.queue) > 0 && e.cfg.FlushDelay >= 0 && !e.queuedAt.IsZero() &&
		len(e.tx) < e.cfg.MaxOutstanding && e.rekey == nil &&
		!(e.cfg.AutoRekey && e.cfg.Reliable && e.sigChain.Remaining() < 4) {
		add(e.queuedAt.Add(e.cfg.FlushDelay))
	}
	for _, seq := range e.txOrder {
		if x, ok := e.tx[seq]; ok {
			add(x.deadline)
		}
	}
	return min, !min.IsZero()
}
