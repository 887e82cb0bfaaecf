package core

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"alpha/internal/packet"
)

func TestCMLocate(t *testing.T) {
	cases := []struct {
		i, n, k            int
		root, leaf, leaves int
		ok                 bool
	}{
		{0, 10, 4, 0, 0, 3, true},
		{2, 10, 4, 0, 2, 3, true},
		{3, 10, 4, 1, 0, 3, true},
		{8, 10, 4, 2, 2, 3, true},
		{9, 10, 4, 3, 0, 1, true}, // last partial subtree
		{0, 1, 1, 0, 0, 1, true},
		{15, 16, 4, 3, 3, 4, true},
		{-1, 10, 4, 0, 0, 0, false},
		{10, 10, 4, 0, 0, 0, false},
		{0, 10, 0, 0, 0, 0, false},
		{0, 4, 5, 0, 0, 0, false}, // more roots than messages
	}
	for _, c := range cases {
		root, leaf, leaves, ok := CMLocate(c.i, c.n, c.k)
		if ok != c.ok || (ok && (root != c.root || leaf != c.leaf || leaves != c.leaves)) {
			t.Errorf("CMLocate(%d,%d,%d) = (%d,%d,%d,%v), want (%d,%d,%d,%v)",
				c.i, c.n, c.k, root, leaf, leaves, ok, c.root, c.leaf, c.leaves, c.ok)
		}
	}
}

func TestQuickCMLocateCoversAllMessages(t *testing.T) {
	// Property: every message index maps to a unique (root, leaf) slot,
	// leaves never exceed the subtree size, and the derived root count is
	// consistent with the sender's partition.
	f := func(nSel, kSel uint8) bool {
		n := 1 + int(nSel)%200
		k := 1 + int(kSel)%n
		sub := CMSubSize(n, k)
		numRoots := (n + sub - 1) / sub
		seen := map[[2]int]bool{}
		for i := 0; i < n; i++ {
			root, leaf, leaves, ok := CMLocate(i, n, numRoots)
			if !ok || root >= numRoots || leaf >= leaves || leaves > sub {
				return false
			}
			slot := [2]int{root, leaf}
			if seen[slot] {
				return false
			}
			seen[slot] = true
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func cmConfig(batch, roots int, reliable bool) Config {
	cfg := baseConfig(packet.ModeCM, reliable)
	cfg.BatchSize = batch
	cfg.CMRoots = roots
	cfg.ChainLen = 128
	return cfg
}

func TestCMEndToEnd(t *testing.T) {
	for _, tc := range []struct{ batch, roots int }{
		{1, 1}, {4, 2}, {10, 4}, {16, 4}, {9, 4}, {16, 16}, {7, 3},
	} {
		t.Run(fmt.Sprintf("n=%d/k=%d", tc.batch, tc.roots), func(t *testing.T) {
			h := newHarness(t, cmConfig(tc.batch, tc.roots, true))
			h.handshake()
			for i := 0; i < tc.batch; i++ {
				if _, err := h.a.Send(h.now, []byte(fmt.Sprintf("cm-%02d", i))); err != nil {
					t.Fatal(err)
				}
			}
			h.a.Flush(h.now)
			h.run(40)
			if got := len(h.payloadsDelivered(h.b)); got != tc.batch {
				t.Fatalf("delivered %d/%d", got, tc.batch)
			}
			if got := h.countKind(h.a, EventAcked); got != tc.batch {
				t.Fatalf("acked %d/%d", got, tc.batch)
			}
			if d := h.firstDrop(h.b); d != nil {
				t.Fatalf("verifier dropped: %v", d.Err)
			}
		})
	}
}

func TestCMProofShorterThanM(t *testing.T) {
	// The point of CM: with k roots the per-S2 proof shrinks by log2(k)
	// hashes relative to plain M.
	captureProofLen := func(cfg Config) int {
		h := newHarness(t, cfg)
		h.handshake()
		proofLen := -1
		h.mangle = func(raw []byte) []byte {
			hdr, msg, err := packet.Decode(raw)
			if err == nil && hdr.Type == packet.TypeS2 && proofLen < 0 {
				proofLen = len(msg.(*packet.S2).Proof) / cfg.Suite.Size()
			}
			return raw
		}
		for i := 0; i < 16; i++ {
			if _, err := h.a.Send(h.now, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		h.a.Flush(h.now)
		h.run(40)
		if proofLen < 0 {
			t.Fatalf("no S2 observed")
		}
		return proofLen
	}
	mCfg := baseConfig(packet.ModeM, false)
	mCfg.BatchSize = 16
	mCfg.ChainLen = 128
	mLen := captureProofLen(mCfg)
	cmLen := captureProofLen(cmConfig(16, 4, false))
	if mLen != 4 { // log2(16)
		t.Fatalf("M proof length %d, want 4", mLen)
	}
	if cmLen != 2 { // log2(16/4)
		t.Fatalf("CM proof length %d, want 2", cmLen)
	}
}

func TestCMTamperDetected(t *testing.T) {
	h := newHarness(t, cmConfig(8, 4, false))
	h.handshake()
	h.mangle = func(raw []byte) []byte {
		hdr, msg, err := packet.Decode(raw)
		if err != nil || hdr.Type != packet.TypeS2 {
			return raw
		}
		s2 := msg.(*packet.S2)
		if s2.MsgIndex != 5 {
			return raw
		}
		s2.Payload = []byte("evil")
		out, _ := packet.Encode(hdr, s2)
		return out
	}
	for i := 0; i < 8; i++ {
		if _, err := h.a.Send(h.now, []byte(fmt.Sprintf("cm-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	h.a.Flush(h.now)
	h.run(40)
	if got := len(h.payloadsDelivered(h.b)); got != 7 {
		t.Fatalf("delivered %d, want 7 (one tampered)", got)
	}
	d := h.firstDrop(h.b)
	if d == nil || !errors.Is(d.Err, ErrBadProof) {
		t.Fatalf("tampered CM S2 not dropped correctly: %+v", d)
	}
}

func TestCMCrossSubtreeProofRejected(t *testing.T) {
	// A proof valid in subtree 0 must not validate a message slot in
	// subtree 1, even with identical payloads.
	h := newHarness(t, cmConfig(8, 4, false))
	h.handshake()
	h.mangle = func(raw []byte) []byte {
		hdr, msg, err := packet.Decode(raw)
		if err != nil || hdr.Type != packet.TypeS2 {
			return raw
		}
		s2 := msg.(*packet.S2)
		if s2.MsgIndex != 0 {
			return raw
		}
		// Replay slot 0's proof and payload in slot 2 (subtree 1).
		s2.MsgIndex = 2
		out, _ := packet.Encode(hdr, s2)
		return out
	}
	for i := 0; i < 8; i++ {
		if _, err := h.a.Send(h.now, []byte(fmt.Sprintf("distinct-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	h.a.Flush(h.now)
	h.run(40)
	// Slot 0's S2 was rewritten to claim slot 2: subtree 1's root does
	// not cover subtree 0's leaf/proof, so it must be dropped. The other
	// seven honest S2 packets (including slot 2's own) deliver normally.
	d := h.firstDrop(h.b)
	if d == nil || !errors.Is(d.Err, ErrBadProof) {
		t.Fatalf("cross-subtree replay not rejected: %+v", d)
	}
	delivered := map[uint32]bool{}
	for _, ev := range h.eventsOf(h.b) {
		if ev.Kind == EventDelivered {
			delivered[ev.MsgIndex] = true
		}
	}
	if delivered[0] {
		t.Fatalf("slot 0 delivered despite its S2 being hijacked")
	}
	if !delivered[2] || string(h.payloadsDelivered(h.b)[0]) == "distinct-0" {
		t.Fatalf("honest slots disturbed: %v", delivered)
	}
}
