package packet

import (
	"errors"
	"strings"
	"testing"

	"alpha/internal/suite"
)

// negS1 returns a valid encoded ModeC S1 under SHA-1 to corrupt. Body
// layout behind the 19-byte header: mode(1) authIdx(4) auth(20) keyIdx(4)
// macCount(2) macs(20 each).
func negS1(t *testing.T) []byte {
	t.Helper()
	s := suite.SHA1()
	d := func(seed byte) []byte {
		b := make([]byte, s.Size())
		for i := range b {
			b[i] = seed + byte(i)
		}
		return b
	}
	raw, err := Encode(
		Header{Type: TypeS1, Suite: s.ID(), Flags: FlagReliable, Assoc: 9, Seq: 3},
		&S1{Mode: ModeC, AuthIdx: 1, Auth: d(1), KeyIdx: 2, MACBlock: flat(d(2), d(3))},
	)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// negA1 returns a valid encoded reliable-mode A1 (pre-ack pair) to corrupt.
// Body layout behind the header: flags(1) authIdx(4) auth(20) keyIdx(4)
// preAck(20) preNack(20).
func negA1(t *testing.T) []byte {
	t.Helper()
	s := suite.SHA1()
	d := func(seed byte) []byte {
		b := make([]byte, s.Size())
		for i := range b {
			b[i] = seed + byte(i)
		}
		return b
	}
	raw, err := Encode(
		Header{Type: TypeA1, Suite: s.ID(), Flags: FlagReliable, Assoc: 9, Seq: 3},
		&A1{AuthIdx: 1, Auth: d(1), KeyIdx: 2, PreAck: d(2), PreNack: d(3)},
	)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestDecodeRejectsMalformed feeds the parser hostile inputs — truncated
// headers, bad magic, wrong digest sizes, out-of-range counts, flag
// combinations the modes forbid — and checks each is rejected with a typed
// *ParseError carrying the right sentinel, packet type and offset.
func TestDecodeRejectsMalformed(t *testing.T) {
	mut := func(base []byte, edit func([]byte)) []byte {
		b := append([]byte(nil), base...)
		edit(b)
		return b
	}
	s1 := negS1(t)
	a1 := negA1(t)
	cases := []struct {
		name string
		in   []byte
		// wantIs, when non-nil, must match via errors.Is.
		wantIs error
		// wantSub, when non-empty, must appear in the error text.
		wantSub string
		// wantType is the expected ParseError.PacketType.
		wantType Type
	}{
		{"empty", nil, ErrTruncated, "", TypeInvalid},
		{"one magic byte", []byte{0xA1}, ErrTruncated, "", TypeInvalid},
		{"bad magic", mut(s1, func(b []byte) { b[0] = 0xDE }), ErrBadMagic, "", TypeInvalid},
		{"bad version", mut(s1, func(b []byte) { b[2] = 99 }), ErrBadVersion, "", TypeInvalid},
		{"unknown type", mut(s1, func(b []byte) { b[3] = 0x7F }), ErrBadType, "", TypeInvalid},
		{"unknown suite", mut(s1, func(b []byte) { b[4] = 0xEE }), nil, "suite", TypeInvalid},
		{"header only", s1[:HeaderSize], ErrTruncated, "", TypeS1},
		{"body truncated", s1[:len(s1)-1], ErrTruncated, "", TypeS1},
		{"trailing byte", append(append([]byte(nil), s1...), 0), ErrTrailing, "", TypeS1},
		{"oversize", make([]byte, MaxPacketSize+1), ErrOversize, "", TypeInvalid},
		{"S1 unknown mode", mut(s1, func(b []byte) { b[HeaderSize] = 9 }), nil, "unknown mode", TypeS1},
		// Digest size mismatch: claim SHA-256 over a body built with
		// 20-byte SHA-1 digests, so a declared field overruns the body.
		{"suite digest size mismatch", mut(s1, func(b []byte) { b[4] = uint8(suite.SHA256().ID()) }), ErrTruncated, "", TypeS1},
		// MAC count 0 violates the §3.3 batch invariant (1..MaxMACs).
		{"S1 zero MAC count", mut(s1, func(b []byte) { b[HeaderSize+29] = 0; b[HeaderSize+30] = 0 }), nil, "MAC count 0", TypeS1},
		// A1 may carry a pre-(n)ack pair or an AMT root, never both.
		{"A1 conflicting flags", mut(a1, func(b []byte) { b[HeaderSize] = 0x03 }), nil, "A1 flags", TypeA1},
		{"A1 undefined flag bit", mut(a1, func(b []byte) { b[HeaderSize] = 0x80 }), nil, "A1 flags", TypeA1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Decode(tc.in)
			if err == nil {
				t.Fatal("malformed packet decoded without error")
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error is %T, want *ParseError: %v", err, err)
			}
			if tc.wantIs != nil && !errors.Is(err, tc.wantIs) {
				t.Fatalf("error %v does not wrap %v", err, tc.wantIs)
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q missing %q", err, tc.wantSub)
			}
			if pe.PacketType != tc.wantType {
				t.Fatalf("ParseError.PacketType = %v, want %v", pe.PacketType, tc.wantType)
			}
			if pe.Offset < 0 || pe.Offset > len(tc.in) {
				t.Fatalf("ParseError.Offset = %d outside input of %d bytes", pe.Offset, len(tc.in))
			}
		})
	}
}

// TestDecodeTruncationSweep cuts every valid packet type at every byte
// boundary: each proper prefix must fail cleanly with a *ParseError (and
// must never panic or succeed, since every field is load-bearing).
func TestDecodeTruncationSweep(t *testing.T) {
	s := suite.SHA1()
	d := func(seed byte) []byte {
		b := make([]byte, s.Size())
		for i := range b {
			b[i] = seed + byte(i)
		}
		return b
	}
	hdr := func(ty Type) Header {
		return Header{Type: ty, Suite: s.ID(), Flags: FlagReliable, Assoc: 42, Seq: 7}
	}
	msgs := []Message{
		&Handshake{Initiator: true, SigAnchor: d(1), AckAnchor: d(2), ChainLen: 8, Nonce: d(3)},
		&S1{Mode: ModeC, AuthIdx: 1, Auth: d(1), KeyIdx: 2, MACBlock: flat(d(2), d(3))},
		&S1{Mode: ModeM, AuthIdx: 1, Auth: d(1), KeyIdx: 2, LeafCount: 8, Root: d(4)},
		&S1{Mode: ModeCM, AuthIdx: 1, Auth: d(1), KeyIdx: 2, LeafCount: 8, Roots: flat(d(5), d(6))},
		&A1{AuthIdx: 1, Auth: d(1), KeyIdx: 2, PreAck: d(2), PreNack: d(3)},
		&A1{AuthIdx: 1, Auth: d(1), KeyIdx: 2, AMTRoot: d(5), AMTLeaves: 4},
		&S2{Mode: ModeM, KeyIdx: 2, Key: d(1), MsgIndex: 3, LeafCount: 8, Proof: flat(d(2), d(3)), Payload: []byte("payload")},
		&A2{Mode: ModeM, KeyIdx: 2, Key: d(1), MsgIndex: 1, Ack: true, Secret: d(2), Proof: flat(d(3)), Other: d(4), AMTLeaves: 2},
	}
	for _, m := range msgs {
		raw, err := Encode(hdr(m.Type()), m)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(raw); cut++ {
			if _, _, err := Decode(raw[:cut]); err == nil {
				t.Fatalf("%v truncated to %d/%d bytes decoded without error", m.Type(), cut, len(raw))
			} else {
				var pe *ParseError
				if !errors.As(err, &pe) {
					t.Fatalf("%v truncated to %d bytes: error is %T, want *ParseError", m.Type(), cut, err)
				}
			}
		}
	}
}
