package packet

import (
	"errors"
	"testing"

	"alpha/internal/suite"
)

// FuzzParsePacket drives the wire parser with arbitrary bytes. Without
// -fuzz it runs the seed corpus (hand-built seeds below plus the netsim
// captures committed under testdata/fuzz/FuzzParsePacket) as a regression
// test; with `go test -fuzz=FuzzParsePacket` it explores mutations. The
// invariants: never panic, never accept trailing garbage, report every
// failure as a typed *ParseError, and anything that decodes must re-encode
// to exactly the input bytes (the wire form is canonical).
func FuzzParsePacket(f *testing.F) {
	s := suite.SHA1()
	d := func(seed byte) []byte {
		b := make([]byte, s.Size())
		for i := range b {
			b[i] = seed + byte(i)
		}
		return b
	}
	hdr := func(t Type) Header {
		return Header{Type: t, Suite: s.ID(), Flags: FlagReliable, Assoc: 42, Seq: 7}
	}
	seed := func(h Header, m Message) {
		raw, err := Encode(h, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	seed(hdr(TypeHS1), &Handshake{Initiator: true, SigAnchor: d(1), AckAnchor: d(2), ChainLen: 8, Nonce: d(3)})
	tokHdr := hdr(TypeHS1)
	tokHdr.Flags |= FlagToken
	tok := make([]byte, 88) // admission.TokenLen
	for i := range tok {
		tok[i] = byte(i * 3)
	}
	seed(tokHdr, &Handshake{Initiator: true, SigAnchor: d(1), AckAnchor: d(2), ChainLen: 8, Nonce: d(3), HasToken: true, Token: tok})
	seed(hdr(TypeS1), &S1{Mode: ModeC, AuthIdx: 1, Auth: d(1), KeyIdx: 2, MACBlock: flat(d(2), d(3))})
	seed(hdr(TypeS1), &S1{Mode: ModeM, AuthIdx: 1, Auth: d(1), KeyIdx: 2, LeafCount: 8, Root: d(4)})
	seed(hdr(TypeA1), &A1{AuthIdx: 1, Auth: d(1), KeyIdx: 2, PreAck: d(2), PreNack: d(3)})
	seed(hdr(TypeA1), &A1{AuthIdx: 1, Auth: d(1), KeyIdx: 2, AMTRoot: d(5), AMTLeaves: 4})
	seed(hdr(TypeS2), &S2{Mode: ModeM, KeyIdx: 2, Key: d(1), MsgIndex: 3, LeafCount: 8, Proof: flat(d(2), d(3), d(4)), Payload: []byte("payload")})
	seed(hdr(TypeA2), &A2{Mode: ModeM, KeyIdx: 2, Key: d(1), MsgIndex: 1, Ack: true, Secret: d(2), Proof: flat(d(3)), Other: d(4), AMTLeaves: 2})
	f.Add([]byte{})
	f.Add([]byte{0xA1, 0xFA})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, m, err := Decode(data)
		if err != nil {
			// The typed-error contract: every parse failure is a
			// *ParseError whose offset stays inside the input.
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("Decode error is not a *ParseError: %T %v", err, err)
			}
			if pe.Offset < 0 || pe.Offset > len(data) {
				t.Fatalf("ParseError offset %d outside input of %d bytes", pe.Offset, len(data))
			}
			return
		}
		re, err := Encode(h, m)
		if err != nil {
			t.Fatalf("decoded packet failed to re-encode: %v", err)
		}
		// Canonical wire form: re-encoding a decoded packet reproduces
		// the input exactly (no redundant encodings survive Decode) —
		// except the filter-cookie byte, which transports stamp in flight
		// and Encode always zeroes (see filter.go).
		if len(re) != len(data) {
			t.Fatalf("re-encoded length %d != original %d", len(re), len(data))
		}
		for i := range re {
			if re[i] != data[i] && i != CookieOffset {
				t.Fatalf("re-encoding differs at byte %d", i)
			}
		}
	})
}
