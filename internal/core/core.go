// Package core implements the ALPHA protocol engine: the signer, verifier
// and acknowledgment state machines of §3 of the paper, covering the basic
// three-way signature exchange, reliable delivery with pre-(n)acks (§3.2),
// the cumulative ALPHA-C and Merkle-tree ALPHA-M modes (§3.3), and the
// handshake that bootstraps hash chain anchors (§3.4).
//
// The engine is sans-IO: it never opens sockets, reads clocks, or sleeps.
// Callers feed it wall-clock time and received datagrams and drain encoded
// datagrams and events. The same engine therefore runs unchanged under the
// deterministic discrete-event simulator (internal/netsim), the UDP
// transport (internal/udptransport), and unit tests that hand-deliver
// packets.
//
// An Endpoint is full-duplex: it is a signer for its outgoing simplex
// channel and a verifier for the incoming one, each direction protected by
// its own signature/acknowledgment chain pair exactly as §3.1 prescribes
// ("the shared security context between two hosts A and B consists of the
// respective anchors {h^As_n, h^Aa_n, h^Bs_n, h^Ba_n}").
package core

import (
	"crypto/rsa"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"alpha/internal/obs"
	"alpha/internal/packet"
	"alpha/internal/suite"
	"alpha/internal/telemetry"
)

// Defaults for Config fields left zero.
const (
	DefaultChainLen       = 2048
	DefaultBatchSize      = 16
	DefaultRTO            = 200 * time.Millisecond
	DefaultMaxRetries     = 8
	DefaultMaxOutstanding = 8
	DefaultMaxRxExchanges = 128
	DefaultFlushDelay     = 2 * time.Millisecond
)

// DefaultChainLowFraction is the chain-remaining fraction below which
// EventChainLow fires when Config.ChainLowFraction is left zero.
const DefaultChainLowFraction = 1.0 / 3

// Config parameterizes an Endpoint. The zero value selects the basic
// unreliable ALPHA mode over SHA-1 with sensible defaults; see the field
// comments for the paper sections each knob corresponds to.
type Config struct {
	// Suite is the hash suite; nil selects SHA-1, the paper's default.
	Suite suite.Suite
	// Mode selects base ALPHA, ALPHA-C, or ALPHA-M (§3.3).
	Mode packet.Mode
	// Reliable enables pre-(n)ack acknowledgments (§3.2.2). With batches
	// larger than one message an Acknowledgment Merkle Tree is used
	// (§3.3.3); a single-message exchange uses the flat pre-ack pair.
	Reliable bool
	// ChainLen is the disclosable length of each hash chain; an
	// association signs ChainLen/2 exchanges per direction before it
	// must re-bootstrap. 0 selects DefaultChainLen.
	ChainLen int
	// BatchSize is the number of messages covered by one S1 in modes C,
	// M and CM ("n" throughout §3.3). Base mode ignores it.
	BatchSize int
	// CMRoots is the number of Merkle roots per S1 in mode CM ("k"): each
	// root covers ⌈BatchSize/k⌉ messages, shrinking every S2's proof by
	// log2(k) hashes at the cost of k·h bytes of relay buffer (§3.3.2's
	// combined C+M operation). 0 selects 4; other modes ignore it.
	CMRoots int
	// FlushDelay is how long a partial batch may linger before it is
	// sent anyway. 0 selects DefaultFlushDelay; negative disables the
	// timer (callers must Flush explicitly).
	FlushDelay time.Duration
	// RTO is the initial retransmission timeout for S1 and reliable S2
	// packets ("S1 and A1 packets require robust and fast
	// retransmission", §3.5). It doubles per retry.
	RTO time.Duration
	// MaxRetries bounds retransmissions before a send fails.
	MaxRetries int
	// MaxOutstanding bounds concurrent signature exchanges in flight.
	MaxOutstanding int
	// MaxRxExchanges bounds receiver-side buffered exchanges; the oldest
	// completed exchange is evicted first. This is the verifier-side
	// memory bound of Table 2.
	MaxRxExchanges int
	// CheckpointInterval selects memory-constrained chain storage: if
	// positive, chains store one element per interval and recompute the
	// rest (the sensor-node trade-off of §4.1.3). 0 stores all elements.
	CheckpointInterval int
	// ChainLowFraction is the fraction of a chain's disclosable length
	// below which EventChainLow fires (and AutoRekey engages): the rekey
	// pressure knob. 0 selects 1/3, the historical default; otherwise it
	// must lie in (0, 1). Tunable per association at runtime with
	// Endpoint.SetChainLowFraction.
	ChainLowFraction float64
	// Coalesce packs multiple outgoing packets of one Poll into bundle
	// datagrams (§3.2.1: combining A and S packets of independent simplex
	// channels), up to CoalesceLimit bytes each. Fewer datagrams means
	// fewer radio wakeups and per-packet header costs on wireless links.
	Coalesce bool
	// CoalesceLimit caps bundle size in bytes; 0 selects 1400 (a safe
	// Ethernet/Wi-Fi MTU budget).
	CoalesceLimit int
	// AutoRekey rotates the local hash chains in-band once they run low
	// (see Endpoint.Rekey), keeping the association alive indefinitely.
	// Requires Reliable mode.
	AutoRekey bool
	// Identity, if set, signs handshake anchors with RSA, upgrading the
	// unprotected handshake to the protected one of §3.4.
	Identity *rsa.PrivateKey
	// VerifyPeer, if set, is called with the peer's public key during a
	// protected handshake; returning an error aborts the association.
	// Required when the peer signs its anchors.
	VerifyPeer func(pub *rsa.PublicKey) error
	// TokenSource, if set, supplies the admission connect token stamped
	// into the initiator's HS1 (internal/admission). It is called once per
	// handshake with the local chain anchors so issuers can bind them;
	// returning an error aborts StartHandshake. Responders ignore it.
	TokenSource func(sigAnchor, ackAnchor []byte) ([]byte, error)
	// Tracer, if set, records per-association packet lifecycle events
	// (S1 announced, A1 received, S2 disclosed/verified, drops with
	// reasons). Tracing is lock-free and allocation-free; a nil Tracer
	// costs one predictable branch per event.
	Tracer *telemetry.Tracer
	// Spans, if set, receives hop-by-hop exchange spans (internal/obs):
	// one fixed-size record per protocol step this endpoint takes, keyed
	// for cross-hop correlation by the exchange's hash-chain element. Like
	// the tracer it is lock-free and allocation-free, and nil is free.
	Spans *obs.SpanRing
}

// withDefaults returns a copy of c with zero fields defaulted.
func (c Config) withDefaults() Config {
	if c.Suite == nil {
		c.Suite = suite.SHA1()
	}
	if c.ChainLen == 0 {
		c.ChainLen = DefaultChainLen
	}
	if c.BatchSize == 0 {
		if c.Mode == packet.ModeBase {
			c.BatchSize = 1
		} else {
			c.BatchSize = DefaultBatchSize
		}
	}
	// Base mode always runs one message per exchange: a larger configured
	// batch is documented as ignored. Invalid (negative) values are left
	// for validate to reject.
	if c.Mode == packet.ModeBase && c.BatchSize > 1 {
		c.BatchSize = 1
	}
	if c.CMRoots == 0 {
		c.CMRoots = 4
	}
	if c.CoalesceLimit == 0 {
		c.CoalesceLimit = 1400
	}
	if c.FlushDelay == 0 {
		c.FlushDelay = DefaultFlushDelay
	}
	if c.ChainLowFraction == 0 {
		c.ChainLowFraction = DefaultChainLowFraction
	}
	if c.RTO == 0 {
		c.RTO = DefaultRTO
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = DefaultMaxRetries
	}
	if c.MaxOutstanding == 0 {
		c.MaxOutstanding = DefaultMaxOutstanding
	}
	if c.MaxRxExchanges == 0 {
		c.MaxRxExchanges = DefaultMaxRxExchanges
	}
	return c
}

func (c Config) validate() error {
	switch c.Mode {
	case packet.ModeBase, packet.ModeC, packet.ModeM, packet.ModeCM:
	default:
		return fmt.Errorf("core: invalid mode %v", c.Mode)
	}
	if c.CMRoots < 1 || c.CMRoots > packet.MaxMACs {
		return fmt.Errorf("core: CM root count %d out of range", c.CMRoots)
	}
	if c.ChainLen < 2 || c.ChainLen%2 != 0 {
		return fmt.Errorf("core: chain length %d must be positive and even", c.ChainLen)
	}
	if c.BatchSize < 1 || c.BatchSize > packet.MaxMACs {
		return fmt.Errorf("core: batch size %d out of range", c.BatchSize)
	}
	if (c.Mode == packet.ModeM || c.Mode == packet.ModeCM) && c.BatchSize > packet.MaxLeafCount {
		return fmt.Errorf("core: batch size %d exceeds Merkle leaf limit", c.BatchSize)
	}
	if c.ChainLowFraction <= 0 || c.ChainLowFraction >= 1 {
		return fmt.Errorf("core: chain-low fraction %v outside (0, 1)", c.ChainLowFraction)
	}
	return nil
}

// EventKind enumerates endpoint events.
type EventKind int

const (
	// EventEstablished fires once the handshake completes.
	EventEstablished EventKind = iota + 1
	// EventDelivered fires when an incoming message passed verification.
	EventDelivered
	// EventAcked fires when the peer positively acknowledged a message
	// (reliable mode).
	EventAcked
	// EventNacked fires when the peer negatively acknowledged a message.
	EventNacked
	// EventSendFailed fires when retransmissions were exhausted or the
	// chain ran out before a message could be signed.
	EventSendFailed
	// EventChainLow fires once when fewer than a quarter of the local
	// signature chain's elements remain, advising re-bootstrap.
	EventChainLow
	// EventDropped fires when an incoming packet was discarded; Err says
	// why. Forged, replayed and tampered packets surface here.
	EventDropped
	// EventRekeyed fires when a local in-band rekey completed: the peer
	// acknowledged the new anchors and the endpoint now signs with fresh
	// chains.
	EventRekeyed
	// EventPeerRekeyed fires when the peer rotated its chains; the new
	// anchors were verified through the old protected channel.
	EventPeerRekeyed
	// EventModeChanged fires when a runtime profile transition
	// (SetProfile) took effect: every exchange started from now on uses
	// the Mode and Batch the event carries. Exchanges already in flight
	// finish under the profile they were created with.
	EventModeChanged
	// EventExpired fires when the transport retires an idle association
	// (generation rotation in the UDP server); the engine itself never
	// emits it. It is the last event a session's consumer sees.
	EventExpired
)

// String returns the event kind's name.
func (k EventKind) String() string {
	switch k {
	case EventEstablished:
		return "Established"
	case EventDelivered:
		return "Delivered"
	case EventAcked:
		return "Acked"
	case EventNacked:
		return "Nacked"
	case EventSendFailed:
		return "SendFailed"
	case EventChainLow:
		return "ChainLow"
	case EventDropped:
		return "Dropped"
	case EventRekeyed:
		return "Rekeyed"
	case EventPeerRekeyed:
		return "PeerRekeyed"
	case EventModeChanged:
		return "ModeChanged"
	case EventExpired:
		return "Expired"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is something the application should know about.
type Event struct {
	Kind EventKind
	// MsgID identifies an outgoing message (as returned by Send) for
	// Acked/Nacked/SendFailed events.
	MsgID uint64
	// Seq is the exchange sequence number the event belongs to.
	Seq uint32
	// MsgIndex is the message's index within its exchange batch.
	MsgIndex uint32
	// Payload carries the verified message for Delivered events.
	Payload []byte
	// Mode and Batch carry the newly active profile for ModeChanged
	// events.
	Mode  packet.Mode
	Batch int
	// Err carries the reason for Dropped and SendFailed events.
	Err error
}

// Drop reasons surfaced in EventDropped events and relay decisions.
var (
	ErrUnknownAssoc    = errors.New("alpha: unknown association")
	ErrBadAuthElement  = errors.New("alpha: chain element verification failed")
	ErrBadMAC          = errors.New("alpha: message authentication failed")
	ErrBadProof        = errors.New("alpha: Merkle proof verification failed")
	ErrUnsolicited     = errors.New("alpha: payload without matching pre-signature")
	ErrBadAck          = errors.New("alpha: acknowledgment verification failed")
	ErrNotEstablished  = errors.New("alpha: association not established")
	ErrChainExhausted  = errors.New("alpha: hash chain exhausted")
	ErrTooManyInFlight = errors.New("alpha: too many outstanding exchanges")
	ErrBadDirection    = errors.New("alpha: packet direction flag mismatch")
	ErrBadHandshake    = errors.New("alpha: handshake verification failed")
)

// MACInput returns the canonical byte string that S1 pre-signatures
// authenticate for message idx of exchange seq on association assoc. Binding
// the association, exchange and batch position prevents a valid MAC from
// being replayed for a different message slot.
func MACInput(assoc uint64, seq uint32, idx uint32, payload []byte) []byte {
	return AppendMACInput(make([]byte, 0, 16+len(payload)), assoc, seq, idx, payload)
}

// AppendMACInput appends the canonical MAC input to dst and returns the
// extended slice, letting hot paths reuse one scratch buffer per endpoint
// instead of allocating per message.
func AppendMACInput(dst []byte, assoc uint64, seq uint32, idx uint32, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, assoc)
	dst = binary.BigEndian.AppendUint32(dst, seq)
	dst = binary.BigEndian.AppendUint32(dst, idx)
	return append(dst, payload...)
}

// Pre-(n)ack domain separation: the "fixed string" of §3.2.2 that makes acks
// and nacks distinguishable.
var (
	tagPreAck  = []byte("ALPHA-ack-1")
	tagPreNack = []byte("ALPHA-ack-0")
)

// AppendPreAckDigest appends the pre-ack value carried in an A1,
// H(key | "1" | secret) in the paper's notation, to dst (allocation-free
// when dst has capacity).
func AppendPreAckDigest(s suite.Suite, dst, key, secret []byte) []byte {
	sc := suite.GetScratch()
	sc.Parts[0], sc.Parts[1], sc.Parts[2] = tagPreAck, key, secret
	dst = s.HashInto(dst, sc.Parts[:3]...)
	suite.PutScratch(sc)
	return dst
}

// AppendPreNackDigest appends the pre-nack value carried in an A1,
// H(key | "0" | secret), to dst.
func AppendPreNackDigest(s suite.Suite, dst, key, secret []byte) []byte {
	sc := suite.GetScratch()
	sc.Parts[0], sc.Parts[1], sc.Parts[2] = tagPreNack, key, secret
	dst = s.HashInto(dst, sc.Parts[:3]...)
	suite.PutScratch(sc)
	return dst
}

// MerkleLeafInput returns the pre-image hashed into leaf idx of an ALPHA-M
// message tree. The batch position is carried by the tree structure; the
// payload is the pre-image, as in Fig. 4.
func MerkleLeafInput(payload []byte) []byte { return payload }

// CMSubSize returns the leaf capacity of each subtree when n messages are
// split across k Merkle roots (mode CM): the first k-1 subtrees are full,
// the last takes the remainder.
func CMSubSize(n, k int) int {
	if k < 1 {
		k = 1
	}
	return (n + k - 1) / k
}

// CMLocate maps global message index i of an n-message, k-root batch to its
// subtree: the root index, the leaf position within that subtree, and that
// subtree's leaf count. ok is false for out-of-range input.
func CMLocate(i, n, k int) (root, leaf, leaves int, ok bool) {
	if i < 0 || i >= n || k < 1 || k > n {
		return 0, 0, 0, false
	}
	sub := CMSubSize(n, k)
	root = i / sub
	leaf = i % sub
	leaves = sub
	if rem := n - root*sub; rem < sub {
		leaves = rem
	}
	return root, leaf, leaves, true
}
