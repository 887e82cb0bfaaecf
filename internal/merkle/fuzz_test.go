package merkle

import (
	"testing"

	"alpha/internal/suite"
)

// FuzzMerkleVerify is a structured property fuzzer for the ALPHA-M proof
// verifiers. From fuzzer-chosen shape parameters it builds a real tree and
// checks three invariants: a genuine proof always verifies, any single-bit
// mutation of the proof, root, message or index is rejected, and Verify /
// VerifyOpening never panic on arbitrary proof material (they parse input
// from unauthenticated packets).
func FuzzMerkleVerify(f *testing.F) {
	f.Add([]byte("seed"), uint8(4), uint8(1), uint16(0), []byte("junk"))
	f.Add([]byte(""), uint8(1), uint8(0), uint16(7), []byte(""))
	f.Add([]byte("batch"), uint8(13), uint8(12), uint16(130), []byte("\x00\x01"))
	f.Fuzz(func(t *testing.T, data []byte, nRaw, jRaw uint8, flip uint16, junk []byte) {
		s := suite.SHA1()
		n := int(nRaw)%16 + 1
		j := int(jRaw) % n
		msgs := make([][]byte, n)
		for i := range msgs {
			msgs[i] = append(append([]byte(nil), data...), byte(i))
		}
		key := append(append([]byte(nil), data...), 0xA5)
		tree, err := Build(s, key, msgs)
		if err != nil {
			t.Fatalf("Build(n=%d): %v", n, err)
		}
		proof, err := tree.AppendProof(nil, j)
		if err != nil {
			t.Fatalf("Proof(%d): %v", j, err)
		}
		root := tree.Root()
		if !Verify(s, key, root, msgs[j], j, n, proof) {
			t.Fatalf("genuine proof rejected (n=%d j=%d)", n, j)
		}

		// Single-bit mutations must all be rejected: flipping any bit of
		// the proof, the root, or the message changes the recomputed
		// root (else the hash would have a trivial second preimage).
		if len(proof) > 0 {
			mp := append([]byte(nil), proof...)
			mp[int(flip)%len(mp)] ^= 1 << (flip % 8)
			if Verify(s, key, root, msgs[j], j, n, mp) {
				t.Fatal("bit-flipped proof accepted")
			}
		}
		mroot := append([]byte(nil), root...)
		mroot[int(flip)%len(mroot)] ^= 0x80
		if Verify(s, key, mroot, msgs[j], j, n, proof) {
			t.Fatal("bit-flipped root accepted")
		}
		mmsg := append([]byte(nil), msgs[j]...)
		mmsg[int(flip)%len(mmsg)] ^= 1
		if Verify(s, key, root, mmsg, j, n, proof) {
			t.Fatal("bit-flipped message accepted")
		}
		if n > 1 && Verify(s, key, root, msgs[j], (j+1)%n, n, proof) {
			t.Fatal("proof accepted at the wrong leaf index")
		}

		// Hostile-input safety: arbitrary proof shapes (wrong lengths,
		// partial digests, nil) must return false, never panic.
		hostile := append(append([]byte(nil), junk...), data...)
		Verify(s, key, root, msgs[j], j, n, hostile)
		Verify(s, key, root, msgs[j], j, n, proof[:len(proof)/2])
		Verify(s, key, root, msgs[j], j, n, nil)
		Verify(s, key, root, msgs[j], -1, n, proof)
		Verify(s, key, root, msgs[j], j, MaxLeaves+1, proof)

		// The same properties for the acknowledgment Merkle tree.
		at, err := NewAckTree(s, key, n)
		if err != nil {
			t.Fatalf("NewAckTree(n=%d): %v", n, err)
		}
		o, err := at.Open(nil, j, flip%2 == 0)
		if err != nil {
			t.Fatalf("Open(%d): %v", j, err)
		}
		if !VerifyOpening(s, key, at.Root(), n, &o) {
			t.Fatalf("genuine opening rejected (n=%d j=%d)", n, j)
		}
		ms := append([]byte(nil), o.Secret...)
		ms[int(flip)%len(ms)] ^= 1
		mo := o
		mo.Secret = ms
		if VerifyOpening(s, key, at.Root(), n, &mo) {
			t.Fatal("bit-flipped opening secret accepted")
		}
		no := o
		no.Ack = !no.Ack
		if VerifyOpening(s, key, at.Root(), n, &no) {
			t.Fatal("opening accepted with inverted ack polarity")
		}
		jo := o
		jo.Proof = hostile
		VerifyOpening(s, key, at.Root(), n, &jo)
		VerifyOpening(s, key, at.Root(), n, nil)
	})
}
