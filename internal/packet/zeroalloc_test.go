package packet

import (
	"bytes"
	"testing"

	"alpha/internal/suite"
)

// codecCases returns one encoded sample of every body shape the decoder
// distinguishes: both handshakes, the four S1 modes, both reliable A1
// forms, the S2 framings and both A2 framings.
func codecCases(t testing.TB) []struct {
	name string
	raw  []byte
} {
	s := suite.SHA1()
	tok := bytes.Repeat([]byte{0x5A}, 88)
	hsTok := hdr(TypeHS1, s)
	hsTok.Flags |= FlagToken
	payload := bytes.Repeat([]byte{7}, 1024)
	msgs := []struct {
		name string
		h    Header
		m    Message
	}{
		{"HS1", hsTok, &Handshake{Initiator: true, SigAnchor: d(s, 1), AckAnchor: d(s, 2), ChainLen: 64, Nonce: d(s, 3), HasToken: true, Token: tok}},
		{"HS2", hdr(TypeHS2, s), &Handshake{SigAnchor: d(s, 1), AckAnchor: d(s, 2), ChainLen: 64, Nonce: d(s, 3)}},
		{"S1/base", hdr(TypeS1, s), &S1{Mode: ModeBase, AuthIdx: 1, Auth: d(s, 1), KeyIdx: 2, MACBlock: d(s, 2)}},
		{"S1/C", hdr(TypeS1, s), &S1{Mode: ModeC, AuthIdx: 1, Auth: d(s, 1), KeyIdx: 2, MACBlock: flat(d(s, 2), d(s, 3), d(s, 4))}},
		{"S1/M", hdr(TypeS1, s), &S1{Mode: ModeM, AuthIdx: 1, Auth: d(s, 1), KeyIdx: 2, LeafCount: 16, Root: d(s, 5)}},
		{"S1/CM", hdr(TypeS1, s), &S1{Mode: ModeCM, AuthIdx: 1, Auth: d(s, 1), KeyIdx: 2, LeafCount: 16, Roots: flat(d(s, 5), d(s, 6), d(s, 7), d(s, 8))}},
		{"A1/prepair", hdr(TypeA1, s), &A1{AuthIdx: 1, Auth: d(s, 1), KeyIdx: 2, PreAck: d(s, 2), PreNack: d(s, 3)}},
		{"A1/AMT", hdr(TypeA1, s), &A1{AuthIdx: 1, Auth: d(s, 1), KeyIdx: 2, AMTRoot: d(s, 4), AMTLeaves: 16}},
		{"S2/base", hdr(TypeS2, s), &S2{Mode: ModeBase, KeyIdx: 2, Key: d(s, 1), Payload: payload}},
		{"S2/M", hdr(TypeS2, s), &S2{Mode: ModeM, KeyIdx: 2, Key: d(s, 1), MsgIndex: 5, LeafCount: 16, Proof: flat(d(s, 2), d(s, 3), d(s, 4), d(s, 5)), Payload: payload}},
		{"S2/CM", hdr(TypeS2, s), &S2{Mode: ModeCM, KeyIdx: 2, Key: d(s, 1), MsgIndex: 5, LeafCount: 16, Proof: flat(d(s, 2), d(s, 3)), Payload: payload}},
		{"A2/base", hdr(TypeA2, s), &A2{Mode: ModeBase, KeyIdx: 2, Key: d(s, 1), Ack: true, Secret: d(s, 5)}},
		{"A2/M", hdr(TypeA2, s), &A2{Mode: ModeM, KeyIdx: 2, Key: d(s, 1), MsgIndex: 6, Secret: d(s, 5), Proof: flat(d(s, 6), d(s, 7), d(s, 8)), Other: d(s, 9), AMTLeaves: 16}},
	}
	out := make([]struct {
		name string
		raw  []byte
	}, len(msgs))
	for i, c := range msgs {
		raw, err := Encode(c.h, c.m)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		out[i].name, out[i].raw = c.name, raw
	}
	return out
}

// TestDecodeZeroAlloc pins the aliasing decoder's contract: every packet
// shape decodes into a stack Packet without a single heap allocation.
func TestDecodeZeroAlloc(t *testing.T) {
	for _, c := range codecCases(t) {
		t.Run(c.name, func(t *testing.T) {
			raw := c.raw
			allocs := testing.AllocsPerRun(200, func() {
				var p Packet
				if err := p.Decode(raw); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("Decode allocates %.1f times per packet, want 0", allocs)
			}
		})
	}
}

// TestDecodeAliasesInput checks the other half of the contract: decoded
// fields are views of the datagram, so rewriting the datagram rewrites
// them. This is exactly why handlers must copy what they keep.
func TestDecodeAliasesInput(t *testing.T) {
	for _, c := range codecCases(t) {
		raw := append([]byte(nil), c.raw...)
		var p Packet
		if err := p.Decode(raw); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		before, err := Encode(p.Header, p.Body())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := HeaderSize; i < len(raw); i++ {
			raw[i] ^= 0xFF
		}
		after, err := Encode(p.Header, p.Body())
		if err != nil {
			// Inverting the body may break a field's own shape; the
			// aliasing is shown either way.
			continue
		}
		if bytes.Equal(before, after) {
			t.Fatalf("%s: decoded fields did not follow the rewritten datagram", c.name)
		}
	}
}

// TestAppendZeroAlloc checks that encoding a stack-built body into a
// buffer with room for it allocates nothing: the sender's exchange buffer
// and the S2/A2 stack bodies rely on it.
func TestAppendZeroAlloc(t *testing.T) {
	for _, c := range codecCases(t) {
		t.Run(c.name, func(t *testing.T) {
			var p Packet
			if err := p.Decode(c.raw); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 0, len(c.raw))
			allocs := testing.AllocsPerRun(200, func() {
				out, err := Append(buf[:0], p.Header, p.Body())
				if err != nil || len(out) != len(c.raw) {
					t.Fatalf("Append: %d bytes, %v", len(out), err)
				}
			})
			if allocs != 0 {
				t.Fatalf("Append allocates %.1f times per packet, want 0", allocs)
			}
		})
	}
}

// TestEncodeOneAlloc checks that Encode hands a control packet back in a
// single exactly sized allocation (receivers encode every A1 and A2 this
// way).
func TestEncodeOneAlloc(t *testing.T) {
	for _, c := range codecCases(t) {
		if len(c.raw) > 512 {
			continue
		}
		var p Packet
		if err := p.Decode(c.raw); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			out, err := Encode(p.Header, p.Body())
			if err != nil || len(out) != cap(out) {
				t.Fatalf("%s: Encode gave %d/%d bytes, %v", c.name, len(out), cap(out), err)
			}
		})
		if allocs != 1 {
			t.Fatalf("%s: Encode allocates %.1f times, want 1", c.name, allocs)
		}
	}
}

// TestSizeHelpersMatchEncoding ties S1Size/S2Size, which senders use to
// size an exchange's wire buffer, to the encoder's actual output.
func TestSizeHelpersMatchEncoding(t *testing.T) {
	h := suite.SHA1().Size()
	for _, c := range codecCases(t) {
		var p Packet
		if err := p.Decode(c.raw); err != nil {
			t.Fatal(err)
		}
		var want int
		switch p.Type {
		case TypeS1:
			n := len(p.S1.MACBlock) / h
			if p.S1.Mode == ModeCM {
				n = len(p.S1.Roots) / h
			}
			want = S1Size(p.S1.Mode, h, n)
		case TypeS2:
			want = S2Size(p.S2.Mode, h, len(p.S2.Proof)/h, len(p.S2.Payload))
		default:
			continue
		}
		if want != len(c.raw) {
			t.Fatalf("%s: size helper says %d bytes, encoder wrote %d", c.name, want, len(c.raw))
		}
	}
}

// TestS1MACFormsEncodeAlike checks the encode-only MACs form against the
// flat MACBlock form, and that setting both is refused.
func TestS1MACFormsEncodeAlike(t *testing.T) {
	s := suite.SHA1()
	h := hdr(TypeS1, s)
	block, err := Encode(h, &S1{Mode: ModeC, AuthIdx: 1, Auth: d(s, 1), KeyIdx: 2, MACBlock: flat(d(s, 2), d(s, 3))})
	if err != nil {
		t.Fatal(err)
	}
	list, err := Encode(h, &S1{Mode: ModeC, AuthIdx: 1, Auth: d(s, 1), KeyIdx: 2, MACs: [][]byte{d(s, 2), d(s, 3)}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(block, list) {
		t.Fatal("MACs and MACBlock encode differently")
	}
	if _, err := Encode(h, &S1{Mode: ModeC, AuthIdx: 1, Auth: d(s, 1), KeyIdx: 2, MACBlock: d(s, 2), MACs: [][]byte{d(s, 3)}}); err == nil {
		t.Fatal("S1 with both MAC forms encoded")
	}
	if _, err := Encode(h, &S1{Mode: ModeC, AuthIdx: 1, Auth: d(s, 1), KeyIdx: 2, MACBlock: d(s, 2)[:7]}); err == nil {
		t.Fatal("MAC block of a partial digest encoded")
	}
}

// benchCodec runs one sub-benchmark per data packet type.
func benchCodec(b *testing.B, run func(b *testing.B, raw []byte)) {
	for _, c := range codecCases(b) {
		switch c.name {
		case "S1/C", "A1/AMT", "S2/M", "A2/M":
			b.Run(c.name[:2], func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(c.raw)))
				run(b, c.raw)
			})
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	benchCodec(b, func(b *testing.B, raw []byte) {
		var p Packet
		for i := 0; i < b.N; i++ {
			if err := p.Decode(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkEncode(b *testing.B) {
	benchCodec(b, func(b *testing.B, raw []byte) {
		var p Packet
		if err := p.Decode(raw); err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 0, len(raw))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Append(buf[:0], p.Header, p.Body()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
