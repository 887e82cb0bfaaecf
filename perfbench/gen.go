package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"time"

	"alpha/internal/admission"
	"alpha/internal/core"
	"alpha/internal/packet"
	"alpha/internal/suite"
)

// poolSize is the seeded byte pool payload bodies are cut from: large
// enough that neighbouring messages carry different bytes, small enough to
// stay in cache so generation never competes with the program for memory
// bandwidth.
const poolSize = 1 << 16

// hostileBit marks the index field of every payload the benchmark forges,
// so a delivered forgery is recognisable by its first eight bytes alone.
const hostileBit = uint64(1) << 63

// Gen derives every input of a run from the run's seed: payload bytes,
// open-loop arrival times and hostile packets. The program under test sees
// only what Gen produces.
type Gen struct {
	seed int64
	pool []byte
}

// NewGen builds the generator for one seed.
func NewGen(seed int64) *Gen {
	g := &Gen{seed: seed, pool: make([]byte, poolSize)}
	rand.New(rand.NewSource(seed)).Read(g.pool)
	return g
}

// body returns the seeded bytes that follow the index of message i.
func (g *Gen) body(i uint64, n int) []byte {
	off := int((i * 2654435761) % uint64(poolSize-n))
	return g.pool[off : off+n]
}

// Payload writes message i of the given size (at least 8 bytes) into dst
// and returns it: an 8-byte big-endian index, then seeded bytes.
func (g *Gen) Payload(dst []byte, i uint64, size int) []byte {
	dst = append(dst[:0], make([]byte, 8)...)
	binary.BigEndian.PutUint64(dst, i)
	return append(dst, g.body(i, size-8)...)
}

// Check reports the index a delivered payload claims and whether its bytes
// are exactly the ones Payload generates for that index and size.
func (g *Gen) Check(p []byte, size int) (uint64, bool) {
	if len(p) != size {
		return 0, false
	}
	i := binary.BigEndian.Uint64(p)
	if i&hostileBit != 0 {
		return i, false
	}
	return i, bytes.Equal(p[8:], g.body(i, size-8))
}

// Arrivals returns the due times, as offsets from the start of the
// schedule, of a Poisson process of the given rate over d.
func (g *Gen) Arrivals(rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(g.seed ^ 0x5eed_a771))
	out := make([]time.Duration, 0, int(rate*d.Seconds()*1.1)+16)
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// Hostile returns forged packet i of the hostile stream aimed at a relay
// that carries association assoc. Even packets are S2s for the live
// association with a random disclosed key; odd packets are S1s announcing
// random unknown associations. Every forged payload carries hostileBit.
func (g *Gen) Hostile(i uint64, assoc uint64, reliable bool) []byte {
	rng := rand.New(rand.NewSource(g.seed ^ int64(i*0x9e3779b97f4a7c15)))
	flags := uint8(core.FlagInitiator)
	if reliable {
		flags |= packet.FlagReliable
	}
	h := packet.Header{Suite: suite.SHA1().ID(), Flags: flags, Assoc: assoc, Seq: rng.Uint32()}
	junk := make([]byte, suite.SHA1().Size())
	rng.Read(junk)
	var msg packet.Message
	if i%2 == 0 {
		payload := make([]byte, 64)
		rng.Read(payload)
		binary.BigEndian.PutUint64(payload, hostileBit|i)
		h.Type = packet.TypeS2
		msg = &packet.S2{Mode: packet.ModeBase, KeyIdx: 2 * (rng.Uint32()%1024 + 1), Key: junk, Payload: payload}
	} else {
		h.Type = packet.TypeS1
		h.Assoc = rng.Uint64()
		msg = &packet.S1{Mode: packet.ModeBase, AuthIdx: 1, Auth: junk, KeyIdx: 2, MACs: [][]byte{junk}}
	}
	raw, err := packet.Encode(h, msg)
	if err != nil {
		panic("perfbench: forged packet does not encode: " + err.Error())
	}
	return raw
}

// HostileHS1 returns forged handshake i of the flood aimed straight at a
// server that requires connect tokens: a syntactically valid HS1 with junk
// anchors for a random unknown association. Even handshakes carry no
// token; odd ones carry random bytes of a token's length and version, so
// the server's admission tier refuses them as missing and as invalid.
func (g *Gen) HostileHS1(i uint64) []byte {
	rng := rand.New(rand.NewSource(g.seed ^ int64(i*0x51_7cc1_b727_220a_95) ^ 0x45f1))
	junk := make([]byte, 3*suite.SHA1().Size())
	rng.Read(junk)
	hs := &packet.Handshake{
		Initiator: true,
		SigAnchor: junk[:20],
		AckAnchor: junk[20:40],
		ChainLen:  64,
		Nonce:     junk[40:60],
	}
	h := packet.Header{Type: packet.TypeHS1, Suite: suite.SHA1().ID(), Flags: core.FlagInitiator, Assoc: rng.Uint64()}
	if i%2 == 1 {
		tok := make([]byte, admission.TokenLen)
		rng.Read(tok)
		tok[0] = admission.TokenVersion
		hs.HasToken, hs.Token = true, tok
		h.Flags |= packet.FlagToken
	}
	raw, err := packet.Encode(h, hs)
	if err != nil {
		panic("perfbench: forged handshake does not encode: " + err.Error())
	}
	return raw
}
