// Package relay implements ALPHA's forwarding-node side: hop-by-hop
// verification of traffic passing through a node that is neither the signer
// nor the verifier of an association (§3.1, §3.5 of the paper).
//
// A relay learns hash chain anchors by observing handshakes, buffers the
// small pre-signatures announced in S1 packets, and then checks every S2
// against them before forwarding, so forged, tampered and unsolicited
// payloads are dropped at the first honest hop instead of crossing the
// network. Verified payloads are surfaced to the host node (the "secure
// extraction of signed data" that enables middlebox signaling), and A2
// acknowledgments are verified against buffered pre-(n)acks so on-path
// nodes can react to confirmed delivery.
//
// Per §3.5 the only packets a relay forwards unconditionally are S1s, and
// even those are rate- and size-limited per flow to bound the flooding
// surface that remains.
package relay

import (
	"errors"
	"fmt"
	"time"

	"alpha/internal/core"
	"alpha/internal/hashchain"
	"alpha/internal/merkle"
	"alpha/internal/obs"
	"alpha/internal/packet"
	"alpha/internal/suite"
	"alpha/internal/telemetry"
)

// Verdict says what to do with a packet.
type Verdict int

const (
	// Forward passes the packet on toward its destination.
	Forward Verdict = iota
	// Drop discards the packet.
	Drop
)

// String returns the verdict name.
func (v Verdict) String() string {
	if v == Forward {
		return "forward"
	}
	return "drop"
}

// Decision is the outcome of processing one packet.
type Decision struct {
	Verdict Verdict
	// Reason explains a Drop (nil for Forward).
	Reason error
	// Type is the decoded ALPHA packet type (TypeInvalid if undecodable).
	Type packet.Type
	// Extracted holds the verified payload of a forwarded S2: data the
	// relay may act upon (middlebox signaling). It aliases the processed
	// datagram, so a caller that keeps it past the datagram's buffer must
	// copy it.
	Extracted []byte
	// AckObserved is set when a verified A2 confirmed delivery of the
	// message with this index (meaningful when AckSeen is true).
	AckSeen     bool
	AckPositive bool
	AckIndex    uint32
	// Rewritten, when non-nil, is the datagram to forward instead of the
	// original: a bundle whose failing sub-packets were stripped.
	Rewritten []byte
	// Sub holds per-packet decisions when the datagram was a bundle.
	Sub []Decision
}

// Extractions collects every verified payload of the decision, including
// sub-packets of a bundle.
func (d *Decision) Extractions() [][]byte {
	var out [][]byte
	if d.Extracted != nil {
		out = append(out, d.Extracted)
	}
	for i := range d.Sub {
		out = append(out, d.Sub[i].Extractions()...)
	}
	return out
}

// Drop reasons specific to relays; verification failures reuse core errors.
var (
	ErrMalformed      = errors.New("relay: malformed packet")
	ErrRateLimited    = errors.New("relay: S1 rate limit exceeded")
	ErrOversizedS1    = errors.New("relay: S1 exceeds per-sender size limit")
	ErrStrictPolicy   = errors.New("relay: unknown association under strict policy")
	ErrUnsolRateLimit = errors.New("relay: unsolicited S1 rate limit exceeded")
)

// Config parameterizes a relay.
type Config struct {
	// Strict drops traffic of unknown associations. The default (false)
	// forwards it unverified, which is the incremental-deployment mode
	// of §3.5: ALPHA-unaware traffic keeps flowing.
	Strict bool
	// MaxFlows bounds the association table.
	MaxFlows int
	// MaxExchanges bounds buffered exchanges per flow and direction.
	MaxExchanges int
	// S1Rate and S1Burst token-bucket S1 packets per flow per second.
	// Zero S1Rate disables rate limiting.
	S1Rate  float64
	S1Burst float64
	// UnsolicitedS1Rate and UnsolicitedS1Burst token-bucket the S1s of
	// associations the relay has never seen a handshake for, per ingress
	// upstream (§3.5: even the packets a relay forwards unconditionally
	// are rate-limited). The per-flow S1Rate bucket cannot cover these —
	// an attacker forging a fresh association ID per packet would mint a
	// fresh bucket per packet. Zero UnsolicitedS1Rate disables the limit,
	// preserving the incremental-deployment pass-through.
	UnsolicitedS1Rate  float64
	UnsolicitedS1Burst float64
	// InitialS1Limit and MaxS1Limit implement the adaptive S1 size
	// policy of §3.5: a flow starts with the small initial budget, and
	// the limit doubles after every verified S2 until MaxS1Limit.
	// Zero InitialS1Limit disables size limiting.
	InitialS1Limit int
	MaxS1Limit     int
	// RequireProtected makes the relay drop handshakes whose anchors are
	// not signed (strong hop-by-hop authentication, §3.4).
	RequireProtected bool
	// SuiteOverride substitutes the hash suite resolved from packet
	// headers, provided it matches the wire ID. The benchmark harness
	// uses this to slot in an operation-counting suite (Table 1).
	SuiteOverride suite.Suite
	// Tracer, if set, records forward/drop events per association so a
	// hop's filtering decisions can be replayed from the /trace endpoint.
	Tracer *telemetry.Tracer
	// Spans, if set, receives one hop-by-hop exchange span per verdict,
	// keyed by the exchange's hash-chain element so this hop's decisions
	// correlate with the sender's and receiver's (internal/obs). Lock-free,
	// allocation-free; nil is free.
	Spans *obs.SpanRing
}

func (c Config) withDefaults() Config {
	if c.MaxFlows == 0 {
		c.MaxFlows = 1024
	}
	if c.MaxExchanges == 0 {
		c.MaxExchanges = 64
	}
	if c.S1Burst == 0 {
		c.S1Burst = 8
	}
	if c.UnsolicitedS1Burst == 0 {
		c.UnsolicitedS1Burst = 16
	}
	if c.MaxS1Limit == 0 {
		c.MaxS1Limit = packet.MaxPacketSize
	}
	return c
}

// Stats counts relay activity.
type Stats struct {
	Forwarded, Dropped                uint64
	Malformed, Unknown, RateLimited   uint64
	BadElement, BadPayload, BadAck    uint64
	Unsolicited, Oversized, Handshake uint64
	StrictPolicy, BadHandshake        uint64
	S1RateLimited                     uint64
	ExtractedBytes                    uint64
}

// Relay is the per-node verification state. Process is not safe for
// concurrent use; the telemetry counters behind Stats() are atomic, so
// snapshots may be taken from other goroutines while the relay runs.
type Relay struct {
	cfg   Config
	flows map[uint64]*flow
	order []uint64

	tel    telemetry.RelayMetrics
	tracer *telemetry.Tracer
	tnow   int64 // caller-supplied clock of the current Process call

	// Per-upstream token buckets for unsolicited S1s: index = the ingress
	// side of the current packet (0/1 for a two-port relay), selected by
	// ProcessFrom. Plain Process charges upstream 0.
	unsol    [2]tokenBucket
	upstream int

	// Hop-by-hop span state: spans is the optional ring from Config;
	// spanKey/spanMode are per-packet scratch set once the packet's
	// exchange (and its chain element) is identified, so the central
	// drop/forward verdicts attribute spans without re-deriving them.
	spans    *obs.SpanRing
	spanKey  uint32
	spanMode uint8
}

// New creates a relay.
func New(cfg Config) *Relay {
	r := &Relay{cfg: cfg.withDefaults(), flows: make(map[uint64]*flow), tracer: cfg.Tracer, spans: cfg.Spans}
	for i := range r.unsol {
		r.unsol[i] = tokenBucket{rate: r.cfg.UnsolicitedS1Rate, burst: r.cfg.UnsolicitedS1Burst}
	}
	r.tel.Init()
	return r
}

// Stats returns a snapshot of the relay's counters.
func (r *Relay) Stats() Stats {
	m := &r.tel
	return Stats{
		Forwarded:      m.Forwarded.Load(),
		Dropped:        m.Dropped.Load(),
		Malformed:      m.Malformed.Load(),
		Unknown:        m.Unknown.Load(),
		RateLimited:    m.RateLimited.Load(),
		BadElement:     m.BadElement.Load(),
		BadPayload:     m.BadPayload.Load(),
		BadAck:         m.BadAck.Load(),
		Unsolicited:    m.Unsolicited.Load(),
		Oversized:      m.Oversized.Load(),
		Handshake:      m.Handshake.Load(),
		StrictPolicy:   m.StrictPolicy.Load(),
		BadHandshake:   m.BadHandshake.Load(),
		S1RateLimited:  m.S1RateLimited.Load(),
		ExtractedBytes: m.ExtractedBytes.Load(),
	}
}

// Telemetry returns the relay's live metric set for export.
func (r *Relay) Telemetry() *telemetry.RelayMetrics { return &r.tel }

// Flows returns the number of tracked associations.
func (r *Relay) Flows() int { return len(r.flows) }

// flow is one observed association.
type flow struct {
	assoc uint64
	st    suite.Suite

	// Chain walkers for both hosts: index 0 = initiator, 1 = responder.
	// prev* hold the pre-rekey generation during the grace window.
	sig     [2]*hashchain.Walker
	ack     [2]*hashchain.Walker
	prevSig [2]*hashchain.Walker
	prevAck [2]*hashchain.Walker

	// Buffered exchanges per signing direction.
	dirs [2]dirState

	bucket  tokenBucket
	s1Limit int

	// Per-flow scratch for MAC inputs and computed digests: S2
	// verification is the relay's per-packet hot path and must not
	// allocate. Relays are single-threaded by contract.
	macIn  []byte
	macOut []byte
	parts  [1][]byte
}

type dirState struct {
	rx    map[uint32]*exchange
	order []uint32
}

// exchange is the relay's buffered state for one signature exchange: the
// S1's pre-signatures plus, once the A1 passes by, its pre-(n)ack material.
// This is exactly the "Relay" column of Tables 2 and 3.
type exchange struct {
	mode   packet.Mode
	keyIdx uint32
	// The S1's pre-signatures, as the flat digest runs it carried them in.
	macs      []byte
	root      []byte
	roots     []byte
	leafCount int
	// auth is the S1's verified chain element, the exchange's own trust
	// anchor: S2 key elements must hash to it (immune to rekeys).
	auth []byte
	// key caches the verified MAC-key element after the first valid S2
	// so duplicates verify by equality.
	key []byte

	// ackAuth is the A1's verified element (A2 keys must hash to it).
	ackAuth   []byte
	ackKeyIdx uint32
	preAck    []byte
	preNack   []byte
	amtRoot   []byte
	amtLeaves int

	verified []bool
}

// bufferedBytes reports this exchange's pre-signature memory (Table 2).
func (x *exchange) bufferedBytes() int {
	return len(x.macs) + len(x.root) + len(x.roots)
}

// ackBytes reports the additional acknowledgment state (Table 3).
func (x *exchange) ackBytes() int {
	return len(x.preAck) + len(x.preNack) + len(x.amtRoot)
}

// BufferedBytes sums pre-signature buffer usage across all flows, for the
// Table 2/3 reproduction.
func (r *Relay) BufferedBytes() (preSig, ack int) {
	for _, f := range r.flows {
		for d := range f.dirs {
			for _, x := range f.dirs[d].rx {
				preSig += x.bufferedBytes()
				ack += x.ackBytes()
			}
		}
	}
	return preSig, ack
}

// Seed installs a flow from provisioned anchors (§3.4's static
// bootstrapping: "base stations can provide nodes with pair-wise anchors"),
// so the relay verifies an association whose handshake it never saw — there
// was none.
func (r *Relay) Seed(st suite.Suite, anchors core.AnchorSet) error {
	if len(r.flows) >= r.cfg.MaxFlows {
		r.evictFlow()
	}
	f := &flow{
		assoc:   anchors.Assoc,
		st:      st,
		bucket:  tokenBucket{rate: r.cfg.S1Rate, burst: r.cfg.S1Burst},
		s1Limit: r.cfg.InitialS1Limit,
	}
	f.dirs[0].rx = make(map[uint32]*exchange)
	f.dirs[1].rx = make(map[uint32]*exchange)
	var err error
	if f.sig[0], err = hashchain.NewSignatureWalker(st, anchors.InitSig); err != nil {
		return err
	}
	if f.ack[0], err = hashchain.NewAcknowledgmentWalker(st, anchors.InitAck); err != nil {
		return err
	}
	if f.sig[1], err = hashchain.NewSignatureWalker(st, anchors.RespSig); err != nil {
		return err
	}
	if f.ack[1], err = hashchain.NewAcknowledgmentWalker(st, anchors.RespAck); err != nil {
		return err
	}
	r.flows[anchors.Assoc] = f
	r.order = append(r.order, anchors.Assoc)
	return nil
}

// verifySig verifies a signature-chain element for direction d, with the
// same rekey grace-window semantics as core.Endpoint.verifyPeerSig: two
// generations stay live until the next rotation replaces the older one;
// S2/A2 elements never reach these walkers (exchange-pinned verification).
func (f *flow) verifySig(d int, elem []byte, idx uint32) error {
	err := f.sig[d].Verify(elem, idx)
	if err == nil {
		return nil
	}
	if f.prevSig[d] == nil {
		return err
	}
	if f.prevSig[d].Verify(elem, idx) == nil {
		return nil
	}
	return err
}

// verifyAck is verifySig for the acknowledgment chain of direction d.
func (f *flow) verifyAck(d int, elem []byte, idx uint32) error {
	err := f.ack[d].Verify(elem, idx)
	if err == nil {
		return nil
	}
	if f.prevAck[d] == nil {
		return err
	}
	if f.prevAck[d].Verify(elem, idx) == nil {
		return nil
	}
	return err
}

// tokenBucket is a simple rate limiter under injected time.
type tokenBucket struct {
	rate, burst float64
	tokens      float64
	last        time.Time
}

func (b *tokenBucket) take(now time.Time) bool {
	if b.rate <= 0 {
		return true
	}
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
	} else {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// stepOf maps a wire packet type to its span step.
func stepOf(t packet.Type) uint8 {
	switch t {
	case packet.TypeS1:
		return obs.StepS1
	case packet.TypeA1:
		return obs.StepA1
	case packet.TypeS2:
		return obs.StepS2
	case packet.TypeA2:
		return obs.StepA2
	case packet.TypeHS1, packet.TypeHS2:
		return obs.StepHS
	default:
		return obs.StepNone
	}
}

// Process inspects one datagram and decides its fate. Packets are charged
// against upstream 0's unsolicited-S1 budget; two-port deployments should
// use ProcessFrom.
func (r *Relay) Process(now time.Time, data []byte) Decision {
	r.upstream = 0
	return r.process(now, data)
}

// ProcessFrom is Process with the ingress upstream identified (0 or 1 for a
// two-port relay), so each side's unsolicited-S1 flood budget is accounted
// separately: a flood arriving on one port cannot starve the pass-through
// allowance of legitimate unknown-association traffic on the other.
func (r *Relay) ProcessFrom(now time.Time, upstream int, data []byte) Decision {
	r.upstream = upstream & 1
	return r.process(now, data)
}

// process decodes one datagram into a frame-local Packet (its fields alias
// data, and the handlers copy what they buffer) and dispatches it.
//
//alpha:hotpath
func (r *Relay) process(now time.Time, data []byte) Decision {
	r.tnow = now.UnixNano()
	r.spanKey, r.spanMode = 0, 0
	var p packet.Packet
	if err := p.Decode(data); err != nil {
		// Double-wrap so callers can match the relay-level ErrMalformed
		// and still extract the parser's typed *packet.ParseError.
		return r.drop(packet.Header{Type: packet.TypeInvalid}, telemetry.ReasonMalformed, fmt.Errorf("%w: %w", ErrMalformed, err)) //alpha:alloc-ok malformed input only
	}
	switch p.Type {
	case packet.TypeBundle:
		return r.processBundle(now, p.Header, &p.Bundle) //alpha:alloc-ok bundles (off by default) collect sub-decisions and may re-frame
	case packet.TypeHS1, packet.TypeHS2:
		return r.processHandshake(p.Header, &p.Handshake) //alpha:alloc-ok a handshake sets up flow state once per association
	case packet.TypeS1:
		return r.processS1(now, p.Header, &p.S1, len(data)) //alpha:alloc-ok an S1 buffers its exchange's pre-signatures once per exchange
	case packet.TypeA1:
		return r.processA1(p.Header, &p.A1) //alpha:alloc-ok an A1 buffers its exchange's pre-(n)ack material once per exchange
	case packet.TypeS2:
		return r.processS2(p.Header, &p.S2)
	case packet.TypeA2:
		return r.processA2(p.Header, &p.A2)
	default:
		return r.drop(p.Header, telemetry.ReasonMalformed, ErrMalformed)
	}
}

// drop discards a packet: one Dropped increment, one per-reason increment
// (when the code has a dedicated counter), one trace event. Keeping all
// three in one place is what guarantees counters and traces never disagree.
func (r *Relay) drop(hdr packet.Header, code uint32, reason error) Decision {
	r.tel.Dropped.Inc()
	if c := r.tel.DropCounter(code); c != nil {
		c.Inc()
	}
	r.tracer.Trace(r.tnow, telemetry.TraceRelayDrop, hdr.Assoc, hdr.Seq, code)
	r.spans.Emit(r.tnow, hdr.Assoc, r.spanKey, hdr.Seq, obs.RoleRelay, stepOf(hdr.Type), r.spanMode, obs.VerdictDrop, code)
	return Decision{Verdict: Drop, Reason: reason, Type: hdr.Type}
}

func (r *Relay) forward(hdr packet.Header) Decision {
	r.tel.Forwarded.Inc()
	r.tracer.Trace(r.tnow, telemetry.TraceRelayForward, hdr.Assoc, hdr.Seq, uint32(hdr.Type))
	r.spans.Emit(r.tnow, hdr.Assoc, r.spanKey, hdr.Seq, obs.RoleRelay, stepOf(hdr.Type), r.spanMode, obs.VerdictForward, uint32(hdr.Type))
	return Decision{Verdict: Forward, Type: hdr.Type}
}

// processBundle verifies every sub-packet of a bundle independently,
// forwarding the survivors: a tampered S2 inside a bundle dies here while
// its honest companions travel on (re-framed without it). The codec forbids
// nested bundles, so the recursion is one level deep.
func (r *Relay) processBundle(now time.Time, hdr packet.Header, b *packet.Bundle) Decision {
	dec := Decision{Type: packet.TypeBundle}
	var keep [][]byte
	stripped := false
	for _, raw := range b.Packets {
		sub := r.process(now, raw) // not Process: keep the ingress upstream

		dec.Sub = append(dec.Sub, sub)
		if sub.Verdict == Forward {
			if sub.Rewritten != nil {
				keep = append(keep, sub.Rewritten)
				stripped = true
			} else {
				keep = append(keep, raw)
			}
		} else {
			stripped = true
		}
	}
	if len(keep) == 0 {
		// Every sub-packet died on its own (and was counted there); the
		// emptied bundle frame dies here and is counted too, so the bundle
		// datagram itself never vanishes from the drop accounting.
		d := r.drop(hdr, telemetry.ReasonUnsolicited, core.ErrUnsolicited)
		d.Sub = dec.Sub
		return d
	}
	dec.Verdict = Forward
	if stripped {
		if len(keep) == 1 {
			dec.Rewritten = keep[0]
		} else if re, err := packet.EncodeBundle(hdr.Suite, hdr.Assoc, hdr.Flags, keep); err == nil {
			dec.Rewritten = re
		} else {
			// Re-framing failed; forwarding the original would leak
			// the dropped packets, so fail closed — and counted.
			d := r.drop(hdr, telemetry.ReasonMalformed, err)
			d.Sub = dec.Sub
			return d
		}
	}
	return dec
}

// resolveSuite maps a wire suite ID to an implementation, honoring the
// configured override when its wire ID matches.
func (r *Relay) resolveSuite(id suite.ID) (suite.Suite, error) {
	if r.cfg.SuiteOverride != nil && r.cfg.SuiteOverride.ID() == id {
		return r.cfg.SuiteOverride, nil
	}
	return suite.ByID(id)
}

// dirIndex maps the header's initiator flag to a chain-set index.
func dirIndex(hdr packet.Header) int {
	if hdr.Flags&core.FlagInitiator != 0 {
		return 0
	}
	return 1
}

// processHandshake learns (or refreshes) a flow from an observed handshake.
func (r *Relay) processHandshake(hdr packet.Header, hs *packet.Handshake) Decision {
	r.tel.Handshake.Inc()
	st, err := r.resolveSuite(hdr.Suite)
	if err != nil {
		return r.drop(hdr, telemetry.ReasonMalformed, ErrMalformed)
	}
	if len(hs.SigAnchor) != st.Size() || len(hs.AckAnchor) != st.Size() {
		return r.drop(hdr, telemetry.ReasonMalformed, ErrMalformed)
	}
	if r.cfg.RequireProtected && hs.Scheme == 0 {
		return r.drop(hdr, telemetry.ReasonBadHandshake, fmt.Errorf("%w: unsigned anchors", core.ErrBadHandshake))
	}
	f, ok := r.flows[hdr.Assoc]
	if !ok {
		if len(r.flows) >= r.cfg.MaxFlows {
			r.evictFlow()
		}
		f = &flow{
			assoc:   hdr.Assoc,
			st:      st,
			bucket:  tokenBucket{rate: r.cfg.S1Rate, burst: r.cfg.S1Burst},
			s1Limit: r.cfg.InitialS1Limit,
		}
		f.dirs[0].rx = make(map[uint32]*exchange)
		f.dirs[1].rx = make(map[uint32]*exchange)
		r.flows[hdr.Assoc] = f
		r.order = append(r.order, hdr.Assoc)
	}
	d := dirIndex(hdr)
	if f.sig[d] == nil {
		sw, err1 := hashchain.NewSignatureWalker(st, hs.SigAnchor)
		aw, err2 := hashchain.NewAcknowledgmentWalker(st, hs.AckAnchor)
		if err1 != nil || err2 != nil {
			return r.drop(hdr, telemetry.ReasonMalformed, ErrMalformed)
		}
		f.sig[d], f.ack[d] = sw, aw
	}
	return r.forward(hdr)
}

func (r *Relay) evictFlow() {
	if len(r.order) == 0 {
		return
	}
	old := r.order[0]
	r.order = r.order[1:]
	delete(r.flows, old)
}

// lookup finds the flow for a packet, deciding pass-through vs strict drop
// when it is unknown. The early decision returns by value (decided reports
// whether it is meaningful): a pointer here would force a heap allocation
// per unknown-association packet, which is exactly the flood path.
func (r *Relay) lookup(hdr packet.Header) (f *flow, early Decision, decided bool) {
	f, ok := r.flows[hdr.Assoc]
	if ok && f.sig[dirIndex(hdr)] != nil {
		return f, Decision{}, false
	}
	r.tel.Unknown.Inc()
	if r.cfg.Strict {
		return nil, r.drop(hdr, telemetry.ReasonStrictPolicy, ErrStrictPolicy), true
	}
	return nil, r.forward(hdr), true
}

// processS1 verifies and buffers a pre-signature announcement.
func (r *Relay) processS1(now time.Time, hdr packet.Header, s1 *packet.S1, size int) Decision {
	f, known := r.flows[hdr.Assoc]
	if !known || f.sig[dirIndex(hdr)] == nil {
		// Unknown association: the per-flow bucket below cannot help — an
		// attacker minting a fresh association ID per packet would mint a
		// fresh bucket per packet — so pass-through S1s draw from a shared
		// per-upstream budget instead (§3.5 rate limiting).
		r.tel.Unknown.Inc()
		if r.cfg.Strict {
			return r.drop(hdr, telemetry.ReasonStrictPolicy, ErrStrictPolicy)
		}
		if !r.unsol[r.upstream].take(now) {
			return r.drop(hdr, telemetry.ReasonS1RateLimit, ErrUnsolRateLimit)
		}
		return r.forward(hdr)
	}
	if !f.bucket.take(now) {
		return r.drop(hdr, telemetry.ReasonRateLimited, ErrRateLimited)
	}
	if f.s1Limit > 0 && size > f.s1Limit {
		return r.drop(hdr, telemetry.ReasonOversized, ErrOversizedS1)
	}
	d := dirIndex(hdr)
	ds := &f.dirs[d]
	if dup, ok := ds.rx[hdr.Seq]; ok {
		// Retransmitted S1: already buffered, just forward.
		r.spanKey, r.spanMode = obs.Key(dup.auth), uint8(dup.mode)
		return r.forward(hdr)
	}
	if s1.AuthIdx%2 != 1 || s1.KeyIdx != s1.AuthIdx+1 {
		return r.drop(hdr, telemetry.ReasonBadElement, core.ErrBadAuthElement)
	}
	if err := f.verifySig(d, s1.Auth, s1.AuthIdx); err != nil {
		return r.drop(hdr, telemetry.ReasonBadElement, fmt.Errorf("%w: %v", core.ErrBadAuthElement, err))
	}
	r.spanKey, r.spanMode = obs.Key(s1.Auth), uint8(s1.Mode)
	x := &exchange{mode: s1.Mode, keyIdx: s1.KeyIdx}
	// presig is the S1's pre-signature material and keep the exchange
	// field it is buffered in.
	var batch int
	var presig []byte
	var keep *[]byte
	switch s1.Mode {
	case packet.ModeBase, packet.ModeC:
		presig, keep = s1.MACBlock, &x.macs
		batch = len(s1.MACBlock) / f.st.Size()
	case packet.ModeM:
		presig, keep = s1.Root, &x.root
		x.leafCount = int(s1.LeafCount)
		batch = x.leafCount
	case packet.ModeCM:
		presig, keep = s1.Roots, &x.roots
		x.leafCount = int(s1.LeafCount)
		batch = x.leafCount
		k := len(s1.Roots) / f.st.Size()
		sub := core.CMSubSize(batch, k)
		if (batch+sub-1)/sub != k {
			return r.drop(hdr, telemetry.ReasonMalformed, ErrMalformed)
		}
	default:
		return r.drop(hdr, telemetry.ReasonMalformed, ErrMalformed)
	}
	// The decoded S1 aliases the datagram, which the transport recycles
	// as soon as this call returns: a missed copy here would let the next
	// datagram rewrite a buffered pre-signature and defeat §3.5's early
	// drop. The chain element and pre-signatures share one block.
	block := make([]byte, 0, len(s1.Auth)+len(presig))
	x.auth = packet.Retain(&block, s1.Auth)
	*keep = packet.Retain(&block, presig)
	x.verified = make([]bool, batch)
	ds.rx[hdr.Seq] = x
	ds.order = append(ds.order, hdr.Seq)
	for len(ds.order) > r.cfg.MaxExchanges {
		old := ds.order[0]
		ds.order = ds.order[1:]
		delete(ds.rx, old)
	}
	return r.forward(hdr)
}

// processA1 verifies the acknowledgment element and buffers pre-(n)ack
// material against the S1 exchange it answers.
func (r *Relay) processA1(hdr packet.Header, a1 *packet.A1) Decision {
	f, early, decided := r.lookup(hdr)
	if decided {
		return early //alpha:drop-ok lookup counted the drop when it built the early verdict
	}
	d := dirIndex(hdr) // direction of the A1 sender = the exchange's verifier
	if a1.AuthIdx%2 != 1 || a1.KeyIdx != a1.AuthIdx+1 {
		return r.drop(hdr, telemetry.ReasonBadElement, core.ErrBadAuthElement)
	}
	if err := f.verifyAck(d, a1.Auth, a1.AuthIdx); err != nil {
		return r.drop(hdr, telemetry.ReasonBadElement, fmt.Errorf("%w: %v", core.ErrBadAuthElement, err))
	}
	// The exchange was opened by the S1 from the opposite direction. A
	// relay may legitimately have missed that S1 (asymmetric routes,
	// joining mid-association): the A1 itself is chain-authenticated, so
	// it is forwarded; only its pre-(n)ack material goes unbuffered.
	x, ok := f.dirs[1-d].rx[hdr.Seq]
	if !ok {
		return r.forward(hdr)
	}
	r.spanKey, r.spanMode = obs.Key(x.auth), uint8(x.mode)
	if x.preAck == nil && x.amtRoot == nil {
		// Copied out of the datagram into one block, for the same reason
		// as the S1's pre-signatures.
		block := make([]byte, 0, len(a1.Auth)+len(a1.PreAck)+len(a1.PreNack)+len(a1.AMTRoot))
		x.ackAuth = packet.Retain(&block, a1.Auth)
		x.ackKeyIdx = a1.KeyIdx
		x.preAck = packet.Retain(&block, a1.PreAck)
		x.preNack = packet.Retain(&block, a1.PreNack)
		x.amtRoot = packet.Retain(&block, a1.AMTRoot)
		x.amtLeaves = int(a1.AMTLeaves)
	}
	return r.forward(hdr)
}

// processS2 is the heart of hop-by-hop filtering: the payload must match a
// buffered pre-signature or it dies here.
// processS2 is the relay's per-payload hot path: every data-bearing packet
// of every flow funnels through here.
//
//alpha:hotpath
func (r *Relay) processS2(hdr packet.Header, s2 *packet.S2) Decision {
	f, early, decided := r.lookup(hdr)
	if decided {
		return early //alpha:drop-ok lookup counted the drop when it built the early verdict
	}
	d := dirIndex(hdr)
	x, ok := f.dirs[d].rx[hdr.Seq]
	if !ok {
		return r.drop(hdr, telemetry.ReasonUnsolicited, core.ErrUnsolicited)
	}
	r.spanKey, r.spanMode = obs.Key(x.auth), uint8(x.mode)
	if s2.Mode != x.mode || s2.KeyIdx != x.keyIdx || int(s2.MsgIndex) >= len(x.verified) {
		return r.drop(hdr, telemetry.ReasonUnsolicited, core.ErrUnsolicited)
	}
	if x.key == nil {
		if !hashchain.VerifyLink(f.st, hashchain.TagS1, hashchain.TagS2, x.auth, s2.Key, s2.KeyIdx) {
			return r.drop(hdr, telemetry.ReasonBadElement, core.ErrBadAuthElement)
		}
		x.key = append([]byte(nil), s2.Key...) //alpha:alloc-ok one copy per exchange, not per packet
	} else if !suite.Equal(x.key, s2.Key) {
		return r.drop(hdr, telemetry.ReasonBadElement, core.ErrBadAuthElement)
	}
	valid := false
	switch x.mode {
	case packet.ModeBase, packet.ModeC:
		want := packet.Digest(x.macs, int(s2.MsgIndex), f.st.Size())
		f.macIn = core.AppendMACInput(f.macIn[:0], hdr.Assoc, hdr.Seq, s2.MsgIndex, s2.Payload)
		f.parts[0] = f.macIn
		f.macOut = f.st.MACInto(f.macOut[:0], s2.Key, f.parts[:1]...)
		valid = suite.Equal(want, f.macOut)
	case packet.ModeM:
		valid = int(s2.LeafCount) == x.leafCount &&
			merkle.Verify(f.st, s2.Key, x.root, core.MerkleLeafInput(s2.Payload), int(s2.MsgIndex), x.leafCount, s2.Proof)
	case packet.ModeCM:
		if int(s2.LeafCount) == x.leafCount {
			h := f.st.Size()
			k := len(x.roots) / h
			if root, leaf, leaves, ok := core.CMLocate(int(s2.MsgIndex), x.leafCount, k); ok && root < k {
				valid = merkle.Verify(f.st, s2.Key, packet.Digest(x.roots, root, h), core.MerkleLeafInput(s2.Payload), leaf, leaves, s2.Proof)
			}
		}
	}
	if !valid {
		if x.mode == packet.ModeM || x.mode == packet.ModeCM {
			return r.drop(hdr, telemetry.ReasonBadPayload, core.ErrBadProof)
		}
		return r.drop(hdr, telemetry.ReasonBadPayload, core.ErrBadMAC)
	}
	x.verified[s2.MsgIndex] = true
	r.tracer.Trace(r.tnow, telemetry.TraceS2Verified, hdr.Assoc, hdr.Seq, s2.MsgIndex)
	dec := r.forward(hdr)
	dec.Extracted = s2.Payload
	r.tel.ExtractedBytes.Add(uint64(len(s2.Payload)))
	r.tel.ExtractedSize.Observe(int64(len(s2.Payload)))
	// Verified in-band rekey announcements rotate this direction's chain
	// walkers, exactly as endpoints do: the new anchors are authenticated
	// by the old chain. The old walkers stay as a one-shot fallback in
	// case the announcing host aborts the rotation (lost ack); the flow's
	// next verified S1 settles which generation is live (see processS1).
	if core.IsRekeyPayload(s2.Payload) {
		if p, ok := core.DecodeRekey(s2.Payload, f.st.Size()); ok { //alpha:alloc-ok rekey happens once per chain lifetime
			if sig, ack, err := core.UpdateAnchors(f.st, p); err == nil { //alpha:alloc-ok rekey happens once per chain lifetime
				if f.prevSig[d] == nil || f.sig[d].Index() > 0 || f.ack[d].Index() > 0 {
					f.prevSig[d], f.prevAck[d] = f.sig[d], f.ack[d]
				}
				f.sig[d], f.ack[d] = sig, ack
			}
		}
	}
	return dec
}

// processA2 verifies a pre-(n)ack opening against buffered A1 material.
//
//alpha:hotpath
func (r *Relay) processA2(hdr packet.Header, a2 *packet.A2) Decision {
	f, early, decided := r.lookup(hdr)
	if decided {
		return early //alpha:drop-ok lookup counted the drop when it built the early verdict
	}
	d := dirIndex(hdr)
	x, ok := f.dirs[1-d].rx[hdr.Seq]
	if !ok || (x.preAck == nil && x.amtRoot == nil) {
		// Never saw this exchange's S1 or A1 (asymmetric routes):
		// the A2 cannot influence on-path state here, but it remains
		// end-to-end verifiable, so forward it.
		if ok {
			r.spanKey, r.spanMode = obs.Key(x.auth), uint8(x.mode)
		}
		return r.forward(hdr)
	}
	r.spanKey, r.spanMode = obs.Key(x.auth), uint8(x.mode)
	if a2.KeyIdx != x.ackKeyIdx {
		return r.drop(hdr, telemetry.ReasonBadAck, core.ErrBadAck)
	}
	if x.ackAuth == nil || !hashchain.VerifyLink(f.st, hashchain.TagA1, hashchain.TagA2, x.ackAuth, a2.Key, a2.KeyIdx) {
		return r.drop(hdr, telemetry.ReasonBadElement, core.ErrBadAuthElement)
	}
	valid := false
	switch {
	case x.preAck != nil:
		if a2.MsgIndex == 0 {
			if a2.Ack {
				f.macOut = core.AppendPreAckDigest(f.st, f.macOut[:0], a2.Key, a2.Secret)
				valid = suite.Equal(x.preAck, f.macOut)
			} else {
				f.macOut = core.AppendPreNackDigest(f.st, f.macOut[:0], a2.Key, a2.Secret)
				valid = suite.Equal(x.preNack, f.macOut)
			}
		}
	case x.amtRoot != nil:
		o := merkle.Opening{Index: a2.MsgIndex, Ack: a2.Ack, Secret: a2.Secret, Proof: a2.Proof, Other: a2.Other}
		valid = merkle.VerifyOpening(f.st, a2.Key, x.amtRoot, x.amtLeaves, &o)
	}
	if !valid {
		return r.drop(hdr, telemetry.ReasonBadAck, core.ErrBadAck)
	}
	dec := r.forward(hdr)
	dec.AckSeen = true
	dec.AckPositive = a2.Ack
	dec.AckIndex = a2.MsgIndex
	// Adaptive S1 size limit: verified progress earns a larger budget
	// (§3.5: "relays should initially limit and later increase the
	// maximum size of S1 packets per sender").
	if f.s1Limit > 0 && a2.Ack {
		f.s1Limit *= 2
		if f.s1Limit > r.cfg.MaxS1Limit {
			f.s1Limit = r.cfg.MaxS1Limit
		}
	}
	return dec
}
