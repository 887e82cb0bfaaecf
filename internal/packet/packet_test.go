package packet

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"alpha/internal/suite"
)

// flat concatenates digests into the wire's flat digest-run layout.
func flat(ds ...[]byte) []byte {
	return bytes.Join(ds, nil)
}

func d(s suite.Suite, seed byte) []byte {
	b := make([]byte, s.Size())
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

func hdr(t Type, s suite.Suite) Header {
	return Header{Type: t, Suite: s.ID(), Flags: FlagReliable, Assoc: 0xDEADBEEFCAFE, Seq: 7}
}

// roundTrip encodes and decodes a message, failing on any mismatch.
func roundTrip(t *testing.T, h Header, msg Message) Message {
	t.Helper()
	raw, err := Encode(h, msg)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	gh, gm, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if gh != h {
		t.Fatalf("header round-trip: got %+v, want %+v", gh, h)
	}
	if !reflect.DeepEqual(gm, msg) {
		t.Fatalf("body round-trip:\n got  %#v\n want %#v", gm, msg)
	}
	return gm
}

func TestHandshakeRoundTrip(t *testing.T) {
	for _, s := range []suite.Suite{suite.SHA1(), suite.SHA256(), suite.MMO()} {
		hs := &Handshake{
			Initiator: true,
			SigAnchor: d(s, 1),
			AckAnchor: d(s, 2),
			ChainLen:  2048,
			Nonce:     d(s, 3),
		}
		roundTrip(t, hdr(TypeHS1, s), hs)
	}
}

func TestProtectedHandshakeRoundTrip(t *testing.T) {
	s := suite.SHA1()
	hs := &Handshake{
		Initiator: false,
		SigAnchor: d(s, 1),
		AckAnchor: d(s, 2),
		ChainLen:  64,
		Nonce:     d(s, 3),
		Scheme:    1,
		PubKey:    bytes.Repeat([]byte{0xAB}, 140),
		Sig:       bytes.Repeat([]byte{0xCD}, 128),
	}
	h := hdr(TypeHS2, s)
	h.Flags |= FlagProtected
	roundTrip(t, h, hs)
}

func TestS1RoundTripBase(t *testing.T) {
	s := suite.SHA1()
	roundTrip(t, hdr(TypeS1, s), &S1{
		Mode: ModeBase, AuthIdx: 5, Auth: d(s, 9), KeyIdx: 6,
		MACBlock: flat(d(s, 4)),
	})
}

func TestS1RoundTripCumulative(t *testing.T) {
	s := suite.MMO()
	var macs []byte
	for i := 0; i < 20; i++ {
		macs = append(macs, d(s, byte(i))...)
	}
	roundTrip(t, hdr(TypeS1, s), &S1{
		Mode: ModeC, AuthIdx: 11, Auth: d(s, 7), KeyIdx: 12, MACBlock: macs,
	})
}

func TestS1RoundTripMerkle(t *testing.T) {
	s := suite.SHA256()
	roundTrip(t, hdr(TypeS1, s), &S1{
		Mode: ModeM, AuthIdx: 3, Auth: d(s, 1), KeyIdx: 4,
		LeafCount: 128, Root: d(s, 2),
	})
}

func TestS1RoundTripCombined(t *testing.T) {
	s := suite.SHA1()
	roundTrip(t, hdr(TypeS1, s), &S1{
		Mode: ModeCM, AuthIdx: 3, Auth: d(s, 1), KeyIdx: 4,
		LeafCount: 64, Roots: flat(d(s, 2), d(s, 3), d(s, 4), d(s, 5)),
	})
	// An S2 in mode CM uses the M framing.
	roundTrip(t, hdr(TypeS2, s), &S2{
		Mode: ModeCM, KeyIdx: 4, Key: d(s, 1), MsgIndex: 17,
		LeafCount: 64, Proof: flat(d(s, 6), d(s, 7)),
		Payload: []byte("combined mode payload"),
	})
	// Root count may not exceed the message count.
	if _, err := Encode(hdr(TypeS1, s), &S1{
		Mode: ModeCM, AuthIdx: 3, Auth: d(s, 1), KeyIdx: 4,
		LeafCount: 2, Roots: flat(d(s, 2), d(s, 3), d(s, 4)),
	}); err == nil {
		t.Fatalf("more roots than messages accepted")
	}
}

func TestA1RoundTrips(t *testing.T) {
	s := suite.SHA1()
	t.Run("plain", func(t *testing.T) {
		roundTrip(t, hdr(TypeA1, s), &A1{AuthIdx: 1, Auth: d(s, 1), KeyIdx: 2})
	})
	t.Run("prepair", func(t *testing.T) {
		roundTrip(t, hdr(TypeA1, s), &A1{
			AuthIdx: 1, Auth: d(s, 1), KeyIdx: 2,
			PreAck: d(s, 2), PreNack: d(s, 3),
		})
	})
	t.Run("amt", func(t *testing.T) {
		roundTrip(t, hdr(TypeA1, s), &A1{
			AuthIdx: 1, Auth: d(s, 1), KeyIdx: 2,
			AMTRoot: d(s, 4), AMTLeaves: 16,
		})
	})
}

func TestA1RejectsBothAckForms(t *testing.T) {
	s := suite.SHA1()
	_, err := Encode(hdr(TypeA1, s), &A1{
		AuthIdx: 1, Auth: d(s, 1), KeyIdx: 2,
		PreAck: d(s, 2), PreNack: d(s, 3), AMTRoot: d(s, 4), AMTLeaves: 4,
	})
	if err == nil {
		t.Fatalf("A1 with both pre-pair and AMT accepted")
	}
}

func TestS2RoundTrips(t *testing.T) {
	s := suite.SHA1()
	t.Run("base", func(t *testing.T) {
		roundTrip(t, hdr(TypeS2, s), &S2{
			Mode: ModeBase, KeyIdx: 2, Key: d(s, 1), MsgIndex: 0,
			Payload: []byte("hello world"),
		})
	})
	t.Run("empty-payload", func(t *testing.T) {
		roundTrip(t, hdr(TypeS2, s), &S2{
			Mode: ModeC, KeyIdx: 2, Key: d(s, 1), MsgIndex: 3,
			Payload: []byte{},
		})
	})
	t.Run("merkle", func(t *testing.T) {
		roundTrip(t, hdr(TypeS2, s), &S2{
			Mode: ModeM, KeyIdx: 2, Key: d(s, 1), MsgIndex: 5,
			LeafCount: 8, Proof: flat(d(s, 2), d(s, 3), d(s, 4)),
			Payload: bytes.Repeat([]byte{0x11}, 999),
		})
	})
}

func TestA2RoundTrips(t *testing.T) {
	s := suite.SHA1()
	t.Run("base-ack", func(t *testing.T) {
		roundTrip(t, hdr(TypeA2, s), &A2{
			Mode: ModeBase, KeyIdx: 2, Key: d(s, 1), MsgIndex: 0,
			Ack: true, Secret: d(s, 5),
		})
	})
	t.Run("base-nack", func(t *testing.T) {
		roundTrip(t, hdr(TypeA2, s), &A2{
			Mode: ModeBase, KeyIdx: 2, Key: d(s, 1), MsgIndex: 0,
			Ack: false, Secret: d(s, 5),
		})
	})
	t.Run("amt-opening", func(t *testing.T) {
		roundTrip(t, hdr(TypeA2, s), &A2{
			Mode: ModeM, KeyIdx: 2, Key: d(s, 1), MsgIndex: 6,
			Ack: true, Secret: d(s, 5),
			Proof: flat(d(s, 6), d(s, 7)), Other: d(s, 8), AMTLeaves: 8,
		})
	})
}

func TestEncodeValidation(t *testing.T) {
	s := suite.SHA1()
	cases := []struct {
		name string
		h    Header
		m    Message
	}{
		{"type mismatch", hdr(TypeS2, s), &S1{Mode: ModeBase, Auth: d(s, 1), MACs: [][]byte{d(s, 2)}}},
		{"bad suite", Header{Type: TypeS1, Suite: 99}, &S1{Mode: ModeBase, Auth: d(s, 1), MACs: [][]byte{d(s, 2)}}},
		{"wrong digest size", hdr(TypeS1, s), &S1{Mode: ModeBase, Auth: []byte("short"), MACs: [][]byte{d(s, 2)}}},
		{"no MACs", hdr(TypeS1, s), &S1{Mode: ModeBase, Auth: d(s, 1)}},
		{"base multi-MAC", hdr(TypeS1, s), &S1{Mode: ModeBase, Auth: d(s, 1), MACs: [][]byte{d(s, 2), d(s, 3)}}},
		{"bad mode", hdr(TypeS1, s), &S1{Mode: 9, Auth: d(s, 1), MACs: [][]byte{d(s, 2)}}},
		{"M zero leaves", hdr(TypeS1, s), &S1{Mode: ModeM, Auth: d(s, 1), Root: d(s, 2)}},
		{"proof outside M", hdr(TypeS2, s), &S2{Mode: ModeBase, Key: d(s, 1), Proof: flat(d(s, 2))}},
		{"oversize payload", hdr(TypeS2, s), &S2{Mode: ModeBase, Key: d(s, 1), Payload: make([]byte, MaxPayload+1)}},
		{"A2 opening outside M", hdr(TypeA2, s), &A2{Mode: ModeBase, Key: d(s, 1), Secret: d(s, 2), Other: d(s, 3)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Encode(c.h, c.m); err == nil {
				t.Fatalf("Encode accepted invalid input")
			}
		})
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	s := suite.SHA1()
	raw, err := Encode(hdr(TypeS1, s), &S1{Mode: ModeBase, AuthIdx: 1, Auth: d(s, 1), KeyIdx: 2, MACBlock: flat(d(s, 2))})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("empty", func(t *testing.T) {
		if _, _, err := Decode(nil); err == nil {
			t.Fatalf("nil decoded")
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), raw...)
		b[0] = 0
		if _, _, err := Decode(b); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		b := append([]byte(nil), raw...)
		b[2] = 99
		if _, _, err := Decode(b); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("bad type", func(t *testing.T) {
		b := append([]byte(nil), raw...)
		b[3] = 200
		if _, _, err := Decode(b); !errors.Is(err, ErrBadType) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("bad suite", func(t *testing.T) {
		b := append([]byte(nil), raw...)
		b[4] = 77
		if _, _, err := Decode(b); err == nil {
			t.Fatalf("unknown suite decoded")
		}
	})
	t.Run("truncations", func(t *testing.T) {
		for i := 1; i < len(raw); i++ {
			if _, _, err := Decode(raw[:i]); err == nil {
				t.Fatalf("truncation at %d decoded", i)
			}
		}
	})
	t.Run("trailing", func(t *testing.T) {
		b := append(append([]byte(nil), raw...), 0x00)
		if _, _, err := Decode(b); !errors.Is(err, ErrTrailing) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("oversize", func(t *testing.T) {
		if _, _, err := Decode(make([]byte, MaxPacketSize+1)); !errors.Is(err, ErrOversize) {
			t.Fatalf("oversize accepted")
		}
	})
}

// TestDecodeNeverPanics fuzzes the parser with random mutations of valid
// packets and pure noise; it must return errors, never panic.
func TestDecodeNeverPanics(t *testing.T) {
	s := suite.SHA1()
	seedPackets := [][]byte{}
	enc := func(h Header, m Message) {
		raw, err := Encode(h, m)
		if err != nil {
			t.Fatal(err)
		}
		seedPackets = append(seedPackets, raw)
	}
	enc(hdr(TypeHS1, s), &Handshake{Initiator: true, SigAnchor: d(s, 1), AckAnchor: d(s, 2), ChainLen: 16, Nonce: d(s, 3)})
	enc(hdr(TypeS1, s), &S1{Mode: ModeC, AuthIdx: 1, Auth: d(s, 1), KeyIdx: 2, MACBlock: flat(d(s, 2), d(s, 3))})
	enc(hdr(TypeA1, s), &A1{AuthIdx: 1, Auth: d(s, 1), KeyIdx: 2, PreAck: d(s, 2), PreNack: d(s, 3)})
	enc(hdr(TypeS2, s), &S2{Mode: ModeM, KeyIdx: 2, Key: d(s, 1), MsgIndex: 1, LeafCount: 4, Proof: flat(d(s, 2), d(s, 3)), Payload: []byte("p")})
	enc(hdr(TypeA2, s), &A2{Mode: ModeM, KeyIdx: 2, Key: d(s, 1), Ack: true, Secret: d(s, 2), Proof: flat(d(s, 3)), Other: d(s, 4), AMTLeaves: 2})

	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 5000; round++ {
		var b []byte
		if round%3 == 0 {
			b = make([]byte, rng.Intn(200))
			rng.Read(b)
		} else {
			seed := seedPackets[rng.Intn(len(seedPackets))]
			b = append([]byte(nil), seed...)
			for k := 0; k < 1+rng.Intn(8); k++ {
				b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
			}
			if rng.Intn(4) == 0 {
				b = b[:rng.Intn(len(b)+1)]
			}
		}
		// Must not panic; errors are fine. If it decodes, re-encoding
		// must succeed (parsed packets are well-formed by
		// construction).
		h, m, err := Decode(b)
		if err == nil {
			if _, err := Encode(h, m); err != nil {
				t.Fatalf("decoded packet failed to re-encode: %v", err)
			}
		}
	}
}

// TestQuickS2RoundTrip checks codec round-trips over randomized S2 fields.
func TestQuickS2RoundTrip(t *testing.T) {
	s := suite.SHA1()
	f := func(keyIdx, msgIdx uint32, payload []byte, seq uint32) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		h := Header{Type: TypeS2, Suite: s.ID(), Assoc: 1, Seq: seq}
		in := &S2{Mode: ModeBase, KeyIdx: keyIdx, Key: d(s, 1), MsgIndex: msgIdx, Payload: payload}
		raw, err := Encode(h, in)
		if err != nil {
			return false
		}
		gh, gm, err := Decode(raw)
		if err != nil {
			return false
		}
		out := gm.(*S2)
		if gh.Seq != seq || out.KeyIdx != keyIdx || out.MsgIndex != msgIdx {
			return false
		}
		if len(payload) == 0 {
			return len(out.Payload) == 0
		}
		return bytes.Equal(out.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTypeAndModeStrings(t *testing.T) {
	if TypeS1.String() != "S1" || TypeA2.String() != "A2" || Type(99).String() == "" {
		t.Fatalf("Type.String broken")
	}
	if ModeBase.String() != "ALPHA" || ModeC.String() != "ALPHA-C" || ModeM.String() != "ALPHA-M" {
		t.Fatalf("Mode.String broken")
	}
}

func TestHeaderSizeConstant(t *testing.T) {
	s := suite.SHA1()
	raw, err := Encode(hdr(TypeA1, s), &A1{AuthIdx: 1, Auth: d(s, 1), KeyIdx: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Body of a plain A1: flags(1)+authIdx(4)+auth(20)+keyIdx(4) = 29.
	if len(raw) != HeaderSize+29 {
		t.Fatalf("encoded length %d, want %d", len(raw), HeaderSize+29)
	}
}
