// Typed packet bodies and their encodings.

package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Limits on repeated fields, enforced on both encode and decode.
const (
	// MaxMACs bounds the cumulative pre-signatures in one ALPHA-C S1.
	MaxMACs = 4096
	// MaxProofDepth bounds Merkle proof length (2^32 leaves would be 32).
	MaxProofDepth = 32
	// MaxLeafCount bounds the advertised Merkle tree size.
	MaxLeafCount = 1 << 20
	// MaxPayload bounds a single S2 payload.
	MaxPayload = 60 << 10
	// MaxKeyBlob bounds handshake public keys and signatures.
	MaxKeyBlob = 8 << 10
)

// errKeyBlob rejects handshake key material over MaxKeyBlob.
var errKeyBlob = errors.New("handshake key material too large")

// Handshake is the body of HS1 and HS2: it carries the sender's hash chain
// anchors (§3.4). In a protected handshake the anchors are additionally
// signed with an asymmetric key, binding the chains to a strong identity.
type Handshake struct {
	// Initiator distinguishes HS1 from HS2; it is carried by the packet
	// type, not the body.
	Initiator bool
	// SigAnchor is the anchor of the sender's signature chain.
	SigAnchor []byte
	// AckAnchor is the anchor of the sender's acknowledgment chain.
	AckAnchor []byte
	// ChainLen is the disclosable length of both chains.
	ChainLen uint32
	// Nonce is a fresh random value mixed into the association identity.
	Nonce []byte
	// Scheme identifies the asymmetric scheme of a protected handshake;
	// 0 means unprotected.
	Scheme uint8
	// PubKey is the sender's encoded public key (protected only).
	PubKey []byte
	// Sig is the signature over the anchors (protected only).
	Sig []byte
	// HasToken gates the trailing Token field. It mirrors the header's
	// FlagToken bit: Decode sets it from the header, and encoders must set
	// the flag and this field together. Gating on a flag instead of always
	// emitting the field keeps the pre-admission wire form byte-identical.
	HasToken bool
	// Token is the admission connect token (HS1 only; opaque to the codec).
	Token []byte
}

// Type implements Message.
func (hs *Handshake) Type() Type {
	if hs.Initiator {
		return TypeHS1
	}
	return TypeHS2
}

func (hs *Handshake) appendBody(b []byte, h int) ([]byte, error) {
	var err error
	if b, err = appendDigest(b, hs.SigAnchor, h); err != nil {
		return b, fmt.Errorf("sig anchor: %w", err)
	}
	if b, err = appendDigest(b, hs.AckAnchor, h); err != nil {
		return b, fmt.Errorf("ack anchor: %w", err)
	}
	b = binary.BigEndian.AppendUint32(b, hs.ChainLen)
	if b, err = appendDigest(b, hs.Nonce, h); err != nil {
		return b, fmt.Errorf("nonce: %w", err)
	}
	b = append(b, hs.Scheme)
	if len(hs.PubKey) > MaxKeyBlob || len(hs.Sig) > MaxKeyBlob {
		return b, errKeyBlob
	}
	if b, err = append16(b, hs.PubKey); err != nil {
		return b, err
	}
	if b, err = append16(b, hs.Sig); err != nil {
		return b, err
	}
	if hs.HasToken {
		if len(hs.Token) > MaxKeyBlob {
			return b, errors.New("handshake token too large")
		}
		return append16(b, hs.Token)
	}
	if len(hs.Token) != 0 {
		return b, errors.New("handshake token present without FlagToken")
	}
	return b, nil
}

func (hs *Handshake) decode(r *reader, h int) error {
	var err error
	if hs.SigAnchor, err = r.take(h); err != nil {
		return err
	}
	if hs.AckAnchor, err = r.take(h); err != nil {
		return err
	}
	if hs.ChainLen, err = r.u32(); err != nil {
		return err
	}
	if hs.Nonce, err = r.take(h); err != nil {
		return err
	}
	if hs.Scheme, err = r.u8(); err != nil {
		return err
	}
	if hs.PubKey, err = r.field16(); err != nil {
		return err
	}
	if hs.Sig, err = r.field16(); err != nil {
		return err
	}
	if hs.HasToken {
		if hs.Token, err = r.field16(); err != nil {
			return err
		}
	}
	if len(hs.PubKey) > MaxKeyBlob || len(hs.Sig) > MaxKeyBlob || len(hs.Token) > MaxKeyBlob {
		return errKeyBlob
	}
	return nil
}

// S1 announces one exchange's pre-signatures. The auth element identifies
// the signer; the MACs (base/C) or Merkle root(s) (M/CM) are keyed with the
// next, still-undisclosed element at KeyIdx. Repeated digests travel as
// flat runs of h-byte digests (h the suite's digest size), exactly as on
// the wire; Digest slices one out.
type S1 struct {
	Mode Mode
	// AuthIdx/Auth are the signer's freshly disclosed signature-chain
	// element (odd disclosure index).
	AuthIdx uint32
	Auth    []byte
	// KeyIdx is the disclosure index of the undisclosed MAC-key element
	// (AuthIdx+1); it is carried explicitly so verifiers need not infer.
	KeyIdx uint32
	// MACBlock holds one pre-signature per message back to back (modes
	// base and C; base always has exactly one): MAC i is
	// Digest(MACBlock, i, h).
	MACBlock []byte
	// MACs is an encode-only alternative to MACBlock for callers that
	// hold the pre-signatures as separate slices. Decode never sets it;
	// Encode rejects an S1 that sets both.
	MACs [][]byte
	// LeafCount and Root describe the Merkle tree of mode M. In mode CM,
	// LeafCount is the total message count and Roots holds the k subtree
	// roots back to back, each covering ⌈LeafCount/k⌉ consecutive
	// messages.
	LeafCount uint32
	Root      []byte
	Roots     []byte
}

// Type implements Message.
func (*S1) Type() Type { return TypeS1 }

// appendMACs appends the S1's pre-signatures from whichever of MACBlock
// and MACs is set, returning their count.
func (p *S1) appendMACs(b []byte, h int) ([]byte, int, error) {
	if len(p.MACs) == 0 {
		var err error
		b, err = appendDigests(b, p.MACBlock, h)
		return b, len(p.MACBlock) / h, err
	}
	if len(p.MACBlock) != 0 {
		return b, 0, errors.New("S1 sets both MACBlock and MACs")
	}
	for i, m := range p.MACs {
		var err error
		if b, err = appendDigest(b, m, h); err != nil {
			return b, 0, fmt.Errorf("MAC %d: %w", i, err)
		}
	}
	return b, len(p.MACs), nil
}

func (p *S1) appendBody(b []byte, h int) ([]byte, error) {
	b = append(b, uint8(p.Mode))
	b = binary.BigEndian.AppendUint32(b, p.AuthIdx)
	var err error
	if b, err = appendDigest(b, p.Auth, h); err != nil {
		return b, fmt.Errorf("auth element: %w", err)
	}
	b = binary.BigEndian.AppendUint32(b, p.KeyIdx)
	switch p.Mode {
	case ModeBase, ModeC:
		// The count precedes the MACs; patch it in once they are known.
		at := len(b)
		b = append(b, 0, 0)
		var count int
		if b, count, err = p.appendMACs(b, h); err != nil {
			return b, err
		}
		if count == 0 || count > MaxMACs {
			return b, fmt.Errorf("S1 carries %d MACs, want 1..%d", count, MaxMACs)
		}
		if p.Mode == ModeBase && count != 1 {
			return b, fmt.Errorf("base-mode S1 carries %d MACs, want exactly 1", count)
		}
		binary.BigEndian.PutUint16(b[at:], uint16(count))
	case ModeM:
		if p.LeafCount == 0 || p.LeafCount > MaxLeafCount {
			return b, fmt.Errorf("S1 leaf count %d out of range", p.LeafCount)
		}
		b = binary.BigEndian.AppendUint32(b, p.LeafCount)
		if b, err = appendDigest(b, p.Root, h); err != nil {
			return b, fmt.Errorf("root: %w", err)
		}
	case ModeCM:
		count := len(p.Roots) / h
		if p.LeafCount == 0 || p.LeafCount > MaxLeafCount {
			return b, fmt.Errorf("S1 leaf count %d out of range", p.LeafCount)
		}
		if count == 0 || count > MaxMACs || uint32(count) > p.LeafCount {
			return b, fmt.Errorf("S1 carries %d roots for %d messages", count, p.LeafCount)
		}
		b = binary.BigEndian.AppendUint32(b, p.LeafCount)
		b = binary.BigEndian.AppendUint16(b, uint16(count))
		if b, err = appendDigests(b, p.Roots, h); err != nil {
			return b, fmt.Errorf("roots: %w", err)
		}
	default:
		return b, fmt.Errorf("unknown mode %v", p.Mode)
	}
	return b, nil
}

func (p *S1) decode(r *reader, h int) error {
	m, err := r.u8()
	if err != nil {
		return err
	}
	p.Mode = Mode(m)
	if p.AuthIdx, err = r.u32(); err != nil {
		return err
	}
	if p.Auth, err = r.take(h); err != nil {
		return err
	}
	if p.KeyIdx, err = r.u32(); err != nil {
		return err
	}
	switch p.Mode {
	case ModeBase, ModeC:
		count, err := r.u16()
		if err != nil {
			return err
		}
		if count == 0 || int(count) > MaxMACs {
			return fmt.Errorf("S1 MAC count %d out of range", count) //alpha:alloc-ok malformed input only
		}
		if p.Mode == ModeBase && count != 1 {
			return fmt.Errorf("base-mode S1 MAC count %d, want 1", count) //alpha:alloc-ok malformed input only
		}
		if p.MACBlock, err = r.take(int(count) * h); err != nil {
			return err
		}
	case ModeM:
		if p.LeafCount, err = r.u32(); err != nil {
			return err
		}
		if p.LeafCount == 0 || p.LeafCount > MaxLeafCount {
			return fmt.Errorf("S1 leaf count %d out of range", p.LeafCount) //alpha:alloc-ok malformed input only
		}
		if p.Root, err = r.take(h); err != nil {
			return err
		}
	case ModeCM:
		if p.LeafCount, err = r.u32(); err != nil {
			return err
		}
		if p.LeafCount == 0 || p.LeafCount > MaxLeafCount {
			return fmt.Errorf("S1 leaf count %d out of range", p.LeafCount) //alpha:alloc-ok malformed input only
		}
		count, err := r.u16()
		if err != nil {
			return err
		}
		if count == 0 || int(count) > MaxMACs || uint32(count) > p.LeafCount {
			return fmt.Errorf("S1 root count %d out of range", count) //alpha:alloc-ok malformed input only
		}
		if p.Roots, err = r.take(int(count) * h); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown mode %d", m) //alpha:alloc-ok malformed input only
	}
	return nil
}

// A1 acknowledges an S1 and expresses the verifier's willingness to receive
// the exchange's payload. In reliable mode it additionally carries the
// pre-acknowledgment material: a pre-ack/pre-nack hash pair (base/C, §3.2.2)
// or an Acknowledgment Merkle Tree root (M, §3.3.3).
type A1 struct {
	// AuthIdx/Auth are the verifier's freshly disclosed acknowledgment-
	// chain element (odd disclosure index).
	AuthIdx uint32
	Auth    []byte
	// KeyIdx is the index of the verifier's undisclosed element keying
	// the pre-(n)acks (reliable mode only; AuthIdx+1).
	KeyIdx uint32
	// PreAck/PreNack are H(h|1|s_ack) and H(h|0|s_nack) (base/C reliable).
	PreAck  []byte
	PreNack []byte
	// AMTRoot/AMTLeaves describe the acknowledgment Merkle tree (M
	// reliable).
	AMTRoot   []byte
	AMTLeaves uint32
}

// Type implements Message.
func (*A1) Type() Type { return TypeA1 }

// a1 body presence flags.
const (
	a1HasPrePair uint8 = 1 << 0
	a1HasAMT     uint8 = 1 << 1
)

func (p *A1) appendBody(b []byte, h int) ([]byte, error) {
	var flags uint8
	if p.PreAck != nil || p.PreNack != nil {
		flags |= a1HasPrePair
	}
	if p.AMTRoot != nil {
		flags |= a1HasAMT
	}
	if flags == a1HasPrePair|a1HasAMT {
		return b, errors.New("A1 cannot carry both a pre-(n)ack pair and an AMT root")
	}
	b = append(b, flags)
	b = binary.BigEndian.AppendUint32(b, p.AuthIdx)
	var err error
	if b, err = appendDigest(b, p.Auth, h); err != nil {
		return b, fmt.Errorf("auth element: %w", err)
	}
	b = binary.BigEndian.AppendUint32(b, p.KeyIdx)
	if flags&a1HasPrePair != 0 {
		if b, err = appendDigest(b, p.PreAck, h); err != nil {
			return b, fmt.Errorf("pre-ack: %w", err)
		}
		if b, err = appendDigest(b, p.PreNack, h); err != nil {
			return b, fmt.Errorf("pre-nack: %w", err)
		}
	}
	if flags&a1HasAMT != 0 {
		if p.AMTLeaves == 0 || p.AMTLeaves > MaxLeafCount {
			return b, fmt.Errorf("A1 AMT leaf count %d out of range", p.AMTLeaves)
		}
		if b, err = appendDigest(b, p.AMTRoot, h); err != nil {
			return b, fmt.Errorf("AMT root: %w", err)
		}
		b = binary.BigEndian.AppendUint32(b, p.AMTLeaves)
	}
	return b, nil
}

func (p *A1) decode(r *reader, h int) error {
	flags, err := r.u8()
	if err != nil {
		return err
	}
	if flags&^(a1HasPrePair|a1HasAMT) != 0 || flags == a1HasPrePair|a1HasAMT {
		return fmt.Errorf("A1 flags %#x invalid", flags) //alpha:alloc-ok malformed input only
	}
	if p.AuthIdx, err = r.u32(); err != nil {
		return err
	}
	if p.Auth, err = r.take(h); err != nil {
		return err
	}
	if p.KeyIdx, err = r.u32(); err != nil {
		return err
	}
	if flags&a1HasPrePair != 0 {
		if p.PreAck, err = r.take(h); err != nil {
			return err
		}
		if p.PreNack, err = r.take(h); err != nil {
			return err
		}
	}
	if flags&a1HasAMT != 0 {
		if p.AMTRoot, err = r.take(h); err != nil {
			return err
		}
		if p.AMTLeaves, err = r.u32(); err != nil {
			return err
		}
		if p.AMTLeaves == 0 || p.AMTLeaves > MaxLeafCount {
			return fmt.Errorf("A1 AMT leaf count %d out of range", p.AMTLeaves) //alpha:alloc-ok malformed input only
		}
	}
	return nil
}

// S2 discloses the MAC key element and carries one message of the exchange.
// In mode M it additionally carries the complementary branch set {Bc} that
// lets the message be verified against the buffered root independently of
// its siblings.
type S2 struct {
	Mode Mode
	// KeyIdx/Key disclose the signature-chain element that keyed the
	// exchange's MACs or Merkle root (even disclosure index).
	KeyIdx uint32
	Key    []byte
	// MsgIndex is the message's index within the exchange batch.
	MsgIndex uint32
	// LeafCount repeats the batch's Merkle leaf count (mode M).
	LeafCount uint32
	// Proof is the complementary branch set, leaf level first, as a flat
	// run of h-byte digests (modes M and CM).
	Proof []byte
	// Payload is the protected message m.
	Payload []byte
}

// Type implements Message.
func (*S2) Type() Type { return TypeS2 }

// S2Size returns the encoded length, header included, of an S2 with digest
// size h, proof depth depth (modes M and CM) and a payload of the given
// length. Senders use it to size one buffer for a whole exchange.
func S2Size(mode Mode, h, depth, payload int) int {
	n := HeaderSize + 1 + 4 + h + 4 + 4 + payload
	if mode == ModeM || mode == ModeCM {
		n += 4 + 1 + depth*h
	}
	return n
}

// S1Size returns the encoded length, header included, of an S1 with digest
// size h carrying count MACs (modes base and C) or roots (mode CM).
func S1Size(mode Mode, h, count int) int {
	n := HeaderSize + 1 + 4 + h + 4
	switch mode {
	case ModeBase, ModeC:
		n += 2 + count*h
	case ModeM:
		n += 4 + h
	case ModeCM:
		n += 4 + 2 + count*h
	}
	return n
}

func (p *S2) appendBody(b []byte, h int) ([]byte, error) {
	b = append(b, uint8(p.Mode))
	b = binary.BigEndian.AppendUint32(b, p.KeyIdx)
	var err error
	if b, err = appendDigest(b, p.Key, h); err != nil {
		return b, fmt.Errorf("key element: %w", err)
	}
	b = binary.BigEndian.AppendUint32(b, p.MsgIndex)
	switch p.Mode {
	case ModeBase, ModeC:
		if len(p.Proof) != 0 {
			return b, errors.New("proof present outside mode M")
		}
	case ModeM, ModeCM:
		depth := len(p.Proof) / h
		if p.LeafCount == 0 || p.LeafCount > MaxLeafCount {
			return b, fmt.Errorf("S2 leaf count %d out of range", p.LeafCount)
		}
		if depth > MaxProofDepth {
			return b, fmt.Errorf("S2 proof depth %d exceeds %d", depth, MaxProofDepth)
		}
		b = binary.BigEndian.AppendUint32(b, p.LeafCount)
		b = append(b, uint8(depth))
		if b, err = appendDigests(b, p.Proof, h); err != nil {
			return b, fmt.Errorf("proof: %w", err)
		}
	default:
		return b, fmt.Errorf("unknown mode %v", p.Mode)
	}
	if len(p.Payload) > MaxPayload {
		return b, fmt.Errorf("payload of %d bytes exceeds %d", len(p.Payload), MaxPayload)
	}
	return append32(b, p.Payload), nil
}

func (p *S2) decode(r *reader, h int) error {
	m, err := r.u8()
	if err != nil {
		return err
	}
	p.Mode = Mode(m)
	if p.KeyIdx, err = r.u32(); err != nil {
		return err
	}
	if p.Key, err = r.take(h); err != nil {
		return err
	}
	if p.MsgIndex, err = r.u32(); err != nil {
		return err
	}
	switch p.Mode {
	case ModeBase, ModeC:
	case ModeM, ModeCM:
		if p.LeafCount, err = r.u32(); err != nil {
			return err
		}
		if p.LeafCount == 0 || p.LeafCount > MaxLeafCount {
			return fmt.Errorf("S2 leaf count %d out of range", p.LeafCount) //alpha:alloc-ok malformed input only
		}
		depth, err := r.u8()
		if err != nil {
			return err
		}
		if int(depth) > MaxProofDepth {
			return fmt.Errorf("S2 proof depth %d exceeds %d", depth, MaxProofDepth) //alpha:alloc-ok malformed input only
		}
		if p.Proof, err = r.take(int(depth) * h); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown mode %d", m) //alpha:alloc-ok malformed input only
	}
	if p.Payload, err = r.field32(MaxPayload); err != nil {
		return err
	}
	return nil
}

// A2 opens a pre-acknowledgment: it discloses the verifier's even-index
// acknowledgment-chain element together with either the base-mode secret
// (s_ack or s_nack) or an AMT leaf opening (mode M).
type A2 struct {
	Mode Mode
	// KeyIdx/Key disclose the acknowledgment-chain element that keyed the
	// pre-(n)acks.
	KeyIdx uint32
	Key    []byte
	// MsgIndex is the acknowledged message's index within the batch.
	MsgIndex uint32
	// Ack is true for a positive acknowledgment.
	Ack bool
	// Secret is s_ack or s_nack (base/C) or the AMT leaf secret (M).
	Secret []byte
	// Proof and Other carry the AMT opening (mode M): the complementary
	// branches within the chosen subtree (a flat run of h-byte digests)
	// and the opposite subtree's root.
	Proof []byte
	Other []byte
	// AMTLeaves repeats the AMT's message count (mode M).
	AMTLeaves uint32
}

// Type implements Message.
func (*A2) Type() Type { return TypeA2 }

func (p *A2) appendBody(b []byte, h int) ([]byte, error) {
	b = append(b, uint8(p.Mode))
	b = binary.BigEndian.AppendUint32(b, p.KeyIdx)
	var err error
	if b, err = appendDigest(b, p.Key, h); err != nil {
		return b, fmt.Errorf("key element: %w", err)
	}
	b = binary.BigEndian.AppendUint32(b, p.MsgIndex)
	if p.Ack {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	if b, err = appendDigest(b, p.Secret, h); err != nil {
		return b, fmt.Errorf("secret: %w", err)
	}
	switch p.Mode {
	case ModeBase, ModeC:
		if len(p.Proof) != 0 || p.Other != nil {
			return b, errors.New("AMT opening present outside mode M")
		}
	case ModeM:
		depth := len(p.Proof) / h
		if p.AMTLeaves == 0 || p.AMTLeaves > MaxLeafCount {
			return b, fmt.Errorf("A2 AMT leaf count %d out of range", p.AMTLeaves)
		}
		if depth > MaxProofDepth {
			return b, fmt.Errorf("A2 proof depth %d exceeds %d", depth, MaxProofDepth)
		}
		b = binary.BigEndian.AppendUint32(b, p.AMTLeaves)
		b = append(b, uint8(depth))
		if b, err = appendDigests(b, p.Proof, h); err != nil {
			return b, fmt.Errorf("proof: %w", err)
		}
		if b, err = appendDigest(b, p.Other, h); err != nil {
			return b, fmt.Errorf("other subtree root: %w", err)
		}
	default:
		return b, fmt.Errorf("unknown mode %v", p.Mode)
	}
	return b, nil
}

func (p *A2) decode(r *reader, h int) error {
	m, err := r.u8()
	if err != nil {
		return err
	}
	p.Mode = Mode(m)
	if p.KeyIdx, err = r.u32(); err != nil {
		return err
	}
	if p.Key, err = r.take(h); err != nil {
		return err
	}
	if p.MsgIndex, err = r.u32(); err != nil {
		return err
	}
	ack, err := r.u8()
	if err != nil {
		return err
	}
	if ack > 1 {
		return fmt.Errorf("A2 ack flag %d invalid", ack) //alpha:alloc-ok malformed input only
	}
	p.Ack = ack == 1
	if p.Secret, err = r.take(h); err != nil {
		return err
	}
	switch p.Mode {
	case ModeBase, ModeC:
	case ModeM:
		if p.AMTLeaves, err = r.u32(); err != nil {
			return err
		}
		if p.AMTLeaves == 0 || p.AMTLeaves > MaxLeafCount {
			return fmt.Errorf("A2 AMT leaf count %d out of range", p.AMTLeaves) //alpha:alloc-ok malformed input only
		}
		depth, err := r.u8()
		if err != nil {
			return err
		}
		if int(depth) > MaxProofDepth {
			return fmt.Errorf("A2 proof depth %d exceeds %d", depth, MaxProofDepth) //alpha:alloc-ok malformed input only
		}
		if p.Proof, err = r.take(int(depth) * h); err != nil {
			return err
		}
		if p.Other, err = r.take(h); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown mode %d", m) //alpha:alloc-ok malformed input only
	}
	return nil
}
