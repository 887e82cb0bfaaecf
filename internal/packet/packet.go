// Package packet defines ALPHA's wire format: the handshake packets (HS1,
// HS2) that exchange hash chain anchors (§3.4 of the paper) and the four
// protocol packets of the signature exchange (§3.1-§3.3):
//
//	S1  announces pre-signatures keyed with an undisclosed chain element
//	A1  acknowledges the S1 and, in reliable mode, carries pre-(n)acks
//	S2  discloses the MAC key and the message(s)
//	A2  opens a pre-ack or pre-nack (reliable mode)
//
// Every packet starts with a fixed 20-byte header carrying the association
// identifier, the hash suite, and the exchange sequence number. Digest
// fields have no length prefix: their size is implied by the suite, which
// the decoder resolves from the header before parsing the body. Everything
// else is explicitly counted and bounds-checked.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"alpha/internal/suite"
)

// Magic identifies ALPHA packets on the wire.
const Magic = 0xA1FA

// Version is the wire format version this package implements.
const Version = 1

// HeaderSize is the encoded size of the fixed header in bytes:
// magic(2) version(1) type(1) suite(1) flags(1) assoc(8) seq(4) reserved(1).
const HeaderSize = 19

// MaxPacketSize caps the size of any encoded packet the codec will emit or
// accept; generous enough for jumbo frames, small enough to bound parsing.
const MaxPacketSize = 64 << 10

// Type enumerates the ALPHA packet types.
type Type uint8

const (
	// TypeInvalid is the zero, invalid packet type.
	TypeInvalid Type = 0
	// TypeHS1 is the handshake initiator packet (anchors I → R).
	TypeHS1 Type = 1
	// TypeHS2 is the handshake responder packet (anchors R → I).
	TypeHS2 Type = 2
	// TypeS1 is the pre-signature announcement packet.
	TypeS1 Type = 3
	// TypeA1 is the acknowledgment of an S1.
	TypeA1 Type = 4
	// TypeS2 is the payload/disclosure packet.
	TypeS2 Type = 5
	// TypeA2 is the pre-(n)ack opening packet.
	TypeA2 Type = 6
)

// String returns the conventional packet-type name from the paper.
func (t Type) String() string {
	switch t {
	case TypeHS1:
		return "HS1"
	case TypeHS2:
		return "HS2"
	case TypeS1:
		return "S1"
	case TypeA1:
		return "A1"
	case TypeS2:
		return "S2"
	case TypeA2:
		return "A2"
	case TypeBundle:
		return "Bundle"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Mode selects the operational mode of a signature exchange (§3.3).
type Mode uint8

const (
	// ModeBase is the basic three-way exchange: one message per S1.
	ModeBase Mode = 0
	// ModeC is ALPHA-C: one S1 carries n cumulative pre-signatures.
	ModeC Mode = 1
	// ModeM is ALPHA-M: one S1 carries a Merkle tree root over n messages.
	ModeM Mode = 2
	// ModeCM combines C and M (§3.3.2, last paragraph): one S1 carries k
	// Merkle roots, each over n/k messages, trading k·h bytes of relay
	// buffer for log2(k) fewer proof hashes in every S2.
	ModeCM Mode = 3
)

// String returns the paper's name for the mode.
func (m Mode) String() string {
	switch m {
	case ModeBase:
		return "ALPHA"
	case ModeC:
		return "ALPHA-C"
	case ModeM:
		return "ALPHA-M"
	case ModeCM:
		return "ALPHA-CM"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Header flags.
const (
	// FlagReliable requests pre-(n)acks for the exchange (§3.2.2).
	FlagReliable uint8 = 1 << 0
	// FlagProtected marks a handshake whose anchors carry an asymmetric
	// signature (§3.4).
	FlagProtected uint8 = 1 << 1
	// FlagToken marks a handshake whose body ends with a connect-token
	// field (the admission tier's versioned encoding: the flag gates the
	// field, so tokenless packets keep the original wire form).
	FlagToken uint8 = 1 << 3
)

// Header is the fixed per-packet header.
type Header struct {
	Type  Type
	Suite suite.ID
	Flags uint8
	// Assoc identifies the security association the packet belongs to.
	Assoc uint64
	// Seq is the exchange (batch) sequence number: every S1 opens a new
	// exchange, and the matching A1/S2/A2 packets echo its Seq.
	Seq uint32
}

// Message is any packet body that can be encoded under a Header: a pointer
// to Handshake, S1, A1, S2, A2 or Bundle.
type Message interface {
	// Type returns the packet type the body encodes as.
	Type() Type
}

// Errors returned by the top-level codec.
var (
	ErrBadMagic   = errors.New("packet: bad magic")
	ErrBadVersion = errors.New("packet: unsupported version")
	ErrBadType    = errors.New("packet: unknown packet type")
	ErrTrailing   = errors.New("packet: trailing bytes after body")
	ErrOversize   = errors.New("packet: exceeds maximum packet size")
)

// ParseError is the error type every failed Decode returns. It records
// which body the parser was inside (TypeInvalid while still in the fixed
// header) and how many bytes it had consumed, and wraps the underlying
// cause so errors.Is against the sentinels above keeps working. Endpoints
// and relays map any *ParseError onto the ReasonMalformed drop code, which
// is what ties hostile-input parse failures to the telemetry counters.
type ParseError struct {
	// PacketType is the body being parsed when decoding failed, or
	// TypeInvalid for failures in (or before) the fixed header.
	PacketType Type
	// Offset is the number of input bytes consumed before the failure.
	Offset int
	// Err is the underlying cause.
	Err error
}

func (e *ParseError) Error() string {
	if e.PacketType == TypeInvalid {
		return fmt.Sprintf("%v (offset %d)", e.Err, e.Offset)
	}
	return fmt.Sprintf("packet: decoding %v body: %v (offset %d)", e.PacketType, e.Err, e.Offset)
}

func (e *ParseError) Unwrap() error { return e.Err }

// Append serializes a header and body onto dst and returns the extended
// buffer. Callers that size dst up front (the sender encodes a whole
// exchange into one buffer) encode without allocating; on error dst is
// returned unextended.
func Append(dst []byte, hdr Header, msg Message) ([]byte, error) {
	h := suite.SizeByID(hdr.Suite)
	if h == 0 {
		_, err := suite.ByID(hdr.Suite)
		return dst, err
	}
	start := len(dst)
	b := binary.BigEndian.AppendUint16(dst, Magic)
	b = append(b, Version, uint8(hdr.Type), uint8(hdr.Suite), hdr.Flags)
	b = binary.BigEndian.AppendUint64(b, hdr.Assoc)
	b = binary.BigEndian.AppendUint32(b, hdr.Seq)
	// Filter cookie slot; zero until a transport stamps it (filter.go).
	b = append(b, 0)
	// A type switch rather than an interface method call: it keeps msg from
	// escaping, so callers can build bodies on the stack.
	var err error
	var body Type
	switch m := msg.(type) {
	case *Handshake:
		body = m.Type()
		b, err = m.appendBody(b, h)
	case *S1:
		body = TypeS1
		b, err = m.appendBody(b, h)
	case *A1:
		body = TypeA1
		b, err = m.appendBody(b, h)
	case *S2:
		body = TypeS2
		b, err = m.appendBody(b, h)
	case *A2:
		body = TypeA2
		b, err = m.appendBody(b, h)
	case *Bundle:
		body = TypeBundle
		b, err = m.appendBody(b)
	default:
		return dst, ErrBadType
	}
	switch {
	case hdr.Type != body:
		return dst, fmt.Errorf("packet: header type %v does not match body type %v", hdr.Type, body)
	case err != nil:
		return dst, err
	case len(b)-start > MaxPacketSize:
		return dst, ErrOversize
	}
	return b, nil
}

// Encode serializes a header and body into a fresh, exactly sized buffer.
func Encode(hdr Header, msg Message) ([]byte, error) {
	// Control packets fit the stack scratch, so they cost one allocation;
	// larger ones grow onto the heap first.
	var scratch [512]byte
	b, err := Append(scratch[:0], hdr, msg)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// Packet is one decoded datagram: its header and the body the header's
// Type names (the other body fields are left as they were). Decode fills a
// caller-owned Packet — typically a stack variable — and every byte slice
// it sets aliases the datagram: decoding copies nothing and allocates
// nothing. Fields are valid only while the datagram's buffer is; a caller
// that keeps a field past that (buffered pre-signatures, a delivered
// payload) must copy it.
type Packet struct {
	Header
	Handshake Handshake
	S1        S1
	A1        A1
	S2        S2
	A2        A2
	Bundle    Bundle
}

// Body returns the decoded body as a Message, e.g. for re-encoding.
func (p *Packet) Body() Message {
	switch p.Type {
	case TypeHS1, TypeHS2:
		return &p.Handshake
	case TypeS1:
		return &p.S1
	case TypeA1:
		return &p.A1
	case TypeS2:
		return &p.S2
	case TypeA2:
		return &p.A2
	case TypeBundle:
		return &p.Bundle
	default:
		return nil
	}
}

// Decode parses a raw packet into p. Every failure is reported as a
// *ParseError wrapping one of the sentinel errors (or a suite/body-level
// cause), so callers can both classify with errors.Is and extract parse
// position with errors.As. Decoding a well-formed packet never allocates.
//
//alpha:hotpath
func (p *Packet) Decode(b []byte) error {
	r := reader{buf: b}
	if t, err := decode(&r, p); err != nil {
		return &ParseError{PacketType: t, Offset: r.off, Err: err} //alpha:alloc-ok malformed input only; the error is the caller's drop reason
	}
	return nil
}

// Decode is Packet.Decode into a fresh Packet, returning the header and the
// body as a Message: a convenience for tools and tests that want the typed
// body. The body's fields alias b exactly as Packet.Decode's do.
func Decode(b []byte) (Header, Message, error) {
	p := new(Packet)
	if err := p.Decode(b); err != nil {
		return Header{}, nil, err
	}
	return p.Header, p.Body(), nil
}

// decode is Packet.Decode's body. It reports the packet type it failed in
// (TypeInvalid while still in the fixed header) alongside the cause.
func decode(r *reader, p *Packet) (Type, error) {
	if len(r.buf) > MaxPacketSize {
		return TypeInvalid, ErrOversize
	}
	if r.remaining() < HeaderSize {
		// Consume what is there so the error offset marks the end.
		r.off = len(r.buf)
		return TypeInvalid, ErrTruncated
	}
	b := r.buf
	if binary.BigEndian.Uint16(b) != Magic {
		return TypeInvalid, ErrBadMagic
	}
	if b[2] != Version {
		return TypeInvalid, ErrBadVersion
	}
	// The trailing header byte is the filter cookie slot (see filter.go):
	// transports may overwrite it in flight with an address-bound hash, so
	// the decoder ignores its value. Encode still writes zero.
	p.Header = Header{
		Type:  Type(b[3]),
		Suite: suite.ID(b[4]),
		Flags: b[5],
		Assoc: binary.BigEndian.Uint64(b[6:]),
		Seq:   binary.BigEndian.Uint32(b[14:]),
	}
	r.off = HeaderSize
	h := suite.SizeByID(p.Suite)
	if h == 0 {
		_, err := suite.ByID(p.Suite) //alpha:alloc-ok malformed input only: recovers the suite package's error text
		return TypeInvalid, err
	}
	var err error
	switch p.Type {
	case TypeHS1, TypeHS2:
		p.Handshake = Handshake{Initiator: p.Type == TypeHS1, HasToken: p.Flags&FlagToken != 0}
		err = p.Handshake.decode(r, h)
	case TypeS1:
		p.S1 = S1{}
		err = p.S1.decode(r, h)
	case TypeA1:
		p.A1 = A1{}
		err = p.A1.decode(r, h)
	case TypeS2:
		p.S2 = S2{}
		err = p.S2.decode(r, h)
	case TypeA2:
		p.A2 = A2{}
		err = p.A2.decode(r, h)
	case TypeBundle:
		p.Bundle = Bundle{}
		err = p.Bundle.decode(r) //alpha:alloc-ok bundles (off by default) allocate their sub-packet list
	default:
		return TypeInvalid, ErrBadType
	}
	if err != nil {
		return p.Type, err
	}
	if r.remaining() != 0 {
		return p.Type, ErrTrailing
	}
	return p.Type, nil
}
