// Package merkle implements the Merkle trees behind ALPHA-M (§3.3.2 of the
// paper) and the Acknowledgment Merkle Trees (AMTs) behind its reliable mode
// (§3.3.3, Fig. 7).
//
// A message tree covers a batch of n messages: leaf j is the hash of
// pre-image m_j, internal nodes hash the concatenation of their children,
// and the root additionally absorbs the signer's next undisclosed hash chain
// element,
//
//	r = H(h^{Ss}_{i-1} | b0 | b1),
//
// so the root doubles as a pre-signature: only the chain owner could have
// produced it, and it cannot be verified until the element is disclosed.
// Each payload packet then carries its message together with the set of
// complementary branches {Bc} — the sibling of every node on the path from
// the leaf to the root — making every packet independently verifiable with
// ⌈log2 n⌉ fixed-length hash operations and O(1) buffered state on relays.
//
// All hashing is domain-separated: leaves, internal nodes and roots use
// distinct prefixes so that no tree node can be replayed in another role.
package merkle

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"alpha/internal/suite"
)

// Domain-separation prefixes for the three node roles.
var (
	tagLeaf = []byte("ALPHA-MT-leaf")
	tagNode = []byte("ALPHA-MT-node")
	tagRoot = []byte("ALPHA-MT-root")
	tagPad  = []byte("ALPHA-MT-pad")
)

// MaxLeaves bounds tree size; 2^20 leaves is far beyond the paper's largest
// evaluated configuration (1024, Table 6) and keeps proofs short.
const MaxLeaves = 1 << 20

// ErrLeafRange is returned when a leaf index is outside the tree.
var ErrLeafRange = errors.New("merkle: leaf index out of range")

// LeafDigest computes the leaf digest of a message pre-image.
func LeafDigest(s suite.Suite, m []byte) []byte {
	return s.Hash(tagLeaf, m)
}

// Depth returns the tree depth (proof length in sibling hashes) for n
// leaves: 0 for a single leaf, ⌈log2 n⌉ otherwise.
func Depth(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Tree is a keyed Merkle tree over a batch of leaf digests. Trees are
// immutable after construction.
type Tree struct {
	s      suite.Suite
	key    []byte
	depth  int
	n      int        // real (unpadded) leaf count
	levels [][][]byte // levels[0] = padded leaves ... levels[depth] = [combined top]
	root   []byte
}

// New builds a keyed tree over the given leaf digests. key is the signer's
// next undisclosed chain element (or the verifier's for AMTs); it is copied.
// The leaf count is padded to the next power of two with a fixed pad digest.
func New(s suite.Suite, key []byte, leaves [][]byte) (*Tree, error) {
	n := len(leaves)
	if n == 0 {
		return nil, errors.New("merkle: no leaves")
	}
	if n > MaxLeaves {
		return nil, fmt.Errorf("merkle: %d leaves exceeds maximum %d", n, MaxLeaves)
	}
	for i, l := range leaves {
		if len(l) != s.Size() {
			return nil, fmt.Errorf("merkle: leaf %d has size %d, want %d", i, len(l), s.Size())
		}
	}
	depth := Depth(n)
	padded := 1 << depth
	level := make([][]byte, padded)
	copy(level, leaves)
	if padded > n {
		pad := s.Hash(tagPad)
		for i := n; i < padded; i++ {
			level[i] = pad
		}
	}
	t := &Tree{s: s, key: append([]byte(nil), key...), depth: depth, n: n}
	t.levels = make([][][]byte, depth+1)
	t.levels[0] = level
	// All internal nodes and the root share one slab: building an n-leaf
	// tree costs O(log n) allocations (level headers) instead of one per
	// node. Proof slices alias the slab, which lives as long as the tree.
	size := s.Size()
	slab := make([]byte, 0, padded*size)
	var parts [4][]byte
	for d := 1; d <= depth; d++ {
		prev := t.levels[d-1]
		cur := make([][]byte, len(prev)/2)
		for i := range cur {
			parts[0], parts[1], parts[2] = tagNode, prev[2*i], prev[2*i+1]
			off := len(slab)
			slab = s.HashInto(slab, parts[:3]...)
			cur[i] = slab[off : off+size : off+size]
		}
		t.levels[d] = cur
	}
	top := t.levels[depth]
	off := len(slab)
	if depth == 0 {
		parts[0], parts[1], parts[2] = tagRoot, t.key, top[0]
		slab = s.HashInto(slab, parts[:3]...)
	} else {
		// The root absorbs the two topmost children directly, matching
		// the paper's r = H(h|b0|b1): levels[depth] has one node which
		// already combines b0 and b1, so recompute from depth-1.
		parts[0], parts[1], parts[2], parts[3] = tagRoot, t.key, t.levels[depth-1][0], t.levels[depth-1][1]
		slab = s.HashInto(slab, parts[:4]...)
	}
	t.root = slab[off : off+size : off+size]
	return t, nil
}

// Build hashes the message pre-images and constructs their keyed tree.
func Build(s suite.Suite, key []byte, msgs [][]byte) (*Tree, error) {
	size := s.Size()
	leaves := make([][]byte, len(msgs))
	slab := make([]byte, 0, len(msgs)*size)
	var parts [2][]byte
	for i, m := range msgs {
		parts[0], parts[1] = tagLeaf, m
		off := len(slab)
		slab = s.HashInto(slab, parts[:]...)
		leaves[i] = slab[off : off+size : off+size]
	}
	return New(s, key, leaves)
}

// Root returns the keyed root digest (the ALPHA-M pre-signature).
func (t *Tree) Root() []byte { return t.root }

// Leaves returns the real (unpadded) leaf count.
func (t *Tree) Leaves() int { return t.n }

// ProofDepth returns the number of sibling digests in each proof.
func (t *Tree) ProofDepth() int { return t.depth }

// AppendProof appends the complementary branch set {Bc} for leaf j to dst,
// ordered from the leaf level upward, as a flat run of ProofDepth digests
// (the S2 wire layout). With a dst of sufficient capacity it does not
// allocate.
func (t *Tree) AppendProof(dst []byte, j int) ([]byte, error) {
	if j < 0 || j >= t.n {
		return dst, ErrLeafRange
	}
	idx := j
	for d := 0; d < t.depth; d++ {
		dst = append(dst, t.levels[d][idx^1]...)
		idx >>= 1
	}
	return dst, nil
}

// Verify checks a message against a keyed root: it recomputes the path from
// m's leaf digest through the complementary branches to the root, unlocking
// the root with the disclosed chain element key. n is the batch's real leaf
// count (needed to derive the padded depth); proof is the flat branch set
// AppendProof writes. Verification is allocation-free: intermediate digests
// live in pooled scratch.
//
//alpha:hotpath
func Verify(s suite.Suite, key, root []byte, m []byte, j, n int, proof []byte) bool {
	sc := suite.GetScratch()
	sc.Parts[0], sc.Parts[1] = tagLeaf, m
	sc.Buf = s.HashInto(sc.Buf, sc.Parts[:2]...)
	ok := VerifyLeaf(s, key, root, sc.Buf, j, n, proof)
	suite.PutScratch(sc)
	return ok
}

// VerifyLeaf is Verify for a precomputed leaf digest.
//
//alpha:hotpath
func VerifyLeaf(s suite.Suite, key, root []byte, leaf []byte, j, n int, proof []byte) bool {
	if j < 0 || j >= n || n < 1 || n > MaxLeaves {
		return false
	}
	depth, size := Depth(n), s.Size()
	if len(proof) != depth*size {
		return false
	}
	sc := suite.GetScratch()
	defer suite.PutScratch(sc)
	if depth == 0 {
		sc.Parts[0], sc.Parts[1], sc.Parts[2] = tagRoot, key, leaf
		sc.Buf = s.HashInto(sc.Buf, sc.Parts[:3]...)
		return suite.Equal(root, sc.Buf)
	}
	cur := leaf
	idx := j
	// Combine up to (but not including) the final level: the last sibling
	// pair feeds the keyed root computation directly. HashInto consumes
	// inputs before appending, so cur may keep pointing at sc.Buf.
	for d := 0; d < depth-1; d++ {
		sc.Parts[0] = tagNode
		if idx&1 == 0 {
			sc.Parts[1], sc.Parts[2] = cur, proof[d*size:(d+1)*size]
		} else {
			sc.Parts[1], sc.Parts[2] = proof[d*size:(d+1)*size], cur
		}
		sc.Buf = s.HashInto(sc.Buf[:0], sc.Parts[:3]...)
		cur = sc.Buf
		idx >>= 1
	}
	sc.Parts[0], sc.Parts[1] = tagRoot, key
	if idx&1 == 0 {
		sc.Parts[2], sc.Parts[3] = cur, proof[(depth-1)*size:]
	} else {
		sc.Parts[2], sc.Parts[3] = proof[(depth-1)*size:], cur
	}
	sc.Buf = s.HashInto(sc.Buf[:0], sc.Parts[:4]...)
	return suite.Equal(root, sc.Buf)
}

// AMT domain-separation prefixes (Fig. 7).
var (
	tagAckLeaf = []byte("ALPHA-AMT-leaf")
	tagAckRoot = []byte("ALPHA-AMT-root")
)

// AckTree is an Acknowledgment Merkle Tree: 2n leaves, the left half
// pre-acknowledging and the right half pre-negative-acknowledging each of n
// messages. Leaf i contains H(x_i | s_i) with x_i the packet index and s_i a
// per-leaf secret; the root absorbs the verifier's next undisclosed
// acknowledgment-chain element:
//
//	root = H(ackRoot | nackRoot | h^{Va}_{i-1}).
//
// The verifier builds an AckTree after receiving an S1, sends the root in
// its A1, and later opens exactly one leaf per message in A2 packets:
// disclosing the ack leaf's secret confirms receipt, the nack leaf's secret
// denies it, and no third party can compute either before disclosure.
type AckTree struct {
	s       suite.Suite
	key     []byte
	n       int
	acks    *Tree
	nacks   *Tree
	secrets [][]byte // 2n secrets: [0,n) ack, [n,2n) nack
	root    []byte
}

// ackLeaf computes the digest of AMT leaf x with secret s.
func ackLeaf(st suite.Suite, x uint32, secret []byte) []byte {
	var xb [4]byte
	binary.BigEndian.PutUint32(xb[:], x)
	return st.Hash(tagAckLeaf, xb[:], secret)
}

// NewAckTree builds an AMT for n messages keyed with the verifier's next
// undisclosed acknowledgment-chain element, drawing fresh random secrets.
func NewAckTree(s suite.Suite, key []byte, n int) (*AckTree, error) {
	if n < 1 || n > MaxLeaves/2 {
		return nil, fmt.Errorf("merkle: invalid AMT message count %d", n)
	}
	// One slab and one rand.Read for all 2n secrets.
	size := s.Size()
	slab := make([]byte, 2*n*size)
	if _, err := rand.Read(slab); err != nil {
		return nil, fmt.Errorf("merkle: generating AMT secret: %w", err)
	}
	secrets := make([][]byte, 2*n)
	for i := range secrets {
		secrets[i] = slab[i*size : (i+1)*size : (i+1)*size]
	}
	return newAckTree(s, key, n, secrets)
}

// newAckTree builds an AMT from caller-supplied secrets (used by tests for
// determinism).
func newAckTree(s suite.Suite, key []byte, n int, secrets [][]byte) (*AckTree, error) {
	size := s.Size()
	ackLeaves := make([][]byte, n)
	nackLeaves := make([][]byte, n)
	slab := make([]byte, 0, 2*n*size)
	sc := suite.GetScratch()
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint32(sc.Tmp[:4], uint32(i))
		sc.Parts[0], sc.Parts[1], sc.Parts[2] = tagAckLeaf, sc.Tmp[:4], secrets[i]
		off := len(slab)
		slab = s.HashInto(slab, sc.Parts[:3]...)
		ackLeaves[i] = slab[off : off+size : off+size]
		sc.Parts[2] = secrets[n+i]
		off = len(slab)
		slab = s.HashInto(slab, sc.Parts[:3]...)
		nackLeaves[i] = slab[off : off+size : off+size]
	}
	suite.PutScratch(sc)
	// Subtrees are unkeyed (nil key is absorbed as empty); only the
	// combined root is keyed, matching Fig. 7.
	acks, err := New(s, nil, ackLeaves)
	if err != nil {
		return nil, err
	}
	nacks, err := New(s, nil, nackLeaves)
	if err != nil {
		return nil, err
	}
	t := &AckTree{
		s: s, key: append([]byte(nil), key...), n: n,
		acks: acks, nacks: nacks, secrets: secrets,
	}
	t.root = s.Hash(tagAckRoot, acks.Root(), nacks.Root(), t.key)
	return t, nil
}

// Root returns the keyed AMT root carried in the A1 packet.
func (t *AckTree) Root() []byte { return t.root }

// Messages returns n, the number of messages the AMT can acknowledge.
func (t *AckTree) Messages() int { return t.n }

// Opening is a disclosed AMT leaf: everything a signer or relay needs to
// verify one (n)ack against a buffered AMT root.
type Opening struct {
	Index  uint32 // packet index x_i
	Ack    bool   // true: positive acknowledgment, false: negative
	Secret []byte // the leaf secret s_i
	Proof  []byte // complementary branches inside the ack or nack subtree (flat)
	Other  []byte // root of the opposite subtree
}

// Open discloses the (n)ack leaf for message index j. The opening's proof
// is appended to proof (pass a buffer with room for Depth(n) digests and
// Open does not allocate); Secret and Other alias tree storage.
func (t *AckTree) Open(proof []byte, j int, ack bool) (Opening, error) {
	if j < 0 || j >= t.n {
		return Opening{}, ErrLeafRange
	}
	sub, other, off := t.acks, t.nacks, 0
	if !ack {
		sub, other, off = t.nacks, t.acks, t.n
	}
	proof, err := sub.AppendProof(proof, j)
	if err != nil {
		return Opening{}, err
	}
	return Opening{
		Index:  uint32(j),
		Ack:    ack,
		Secret: t.secrets[off+j],
		Proof:  proof,
		Other:  other.Root(),
	}, nil
}

// VerifyOpening checks a disclosed (n)ack against a buffered AMT root, using
// the by-now-disclosed acknowledgment-chain element key. n is the message
// count of the batch. Like Verify, it does not allocate.
//
//alpha:hotpath
func VerifyOpening(s suite.Suite, key, root []byte, n int, o *Opening) bool {
	if o == nil || int(o.Index) >= n || n < 1 {
		return false
	}
	sc := suite.GetScratch()
	defer suite.PutScratch(sc)
	binary.BigEndian.PutUint32(sc.Tmp[:4], o.Index)
	sc.Parts[0], sc.Parts[1], sc.Parts[2] = tagAckLeaf, sc.Tmp[:4], o.Secret
	sc.Buf = s.HashInto(sc.Buf, sc.Parts[:3]...)
	// Recompute the subtree root from the opening. The subtrees are
	// unkeyed, so we recompute against a synthetic root, then absorb it
	// into the combined keyed root; all chaining values stay in sc.Buf.
	subRoot := subtreeRoot(s, sc, sc.Buf, int(o.Index), n, o.Proof)
	if subRoot == nil {
		return false
	}
	sc.Parts[0], sc.Parts[3] = tagAckRoot, key
	if o.Ack {
		sc.Parts[1], sc.Parts[2] = subRoot, o.Other
	} else {
		sc.Parts[1], sc.Parts[2] = o.Other, subRoot
	}
	sc.Buf = s.HashInto(sc.Buf[:0], sc.Parts[:4]...)
	return suite.Equal(root, sc.Buf)
}

// subtreeRoot recomputes an unkeyed subtree root from a leaf and its proof,
// returning nil on malformed input. Unkeyed trees still finish with the
// keyed-root step (key = nil), mirroring New with a nil key. The result
// lives in sc.Buf; leaf may already point there.
func subtreeRoot(s suite.Suite, sc *suite.Scratch, leaf []byte, j, n int, proof []byte) []byte {
	depth, size := Depth(n), s.Size()
	if j < 0 || j >= n || len(proof) != depth*size {
		return nil
	}
	if depth == 0 {
		sc.Parts[0], sc.Parts[1], sc.Parts[2] = tagRoot, nil, leaf
		sc.Buf = s.HashInto(sc.Buf[:0], sc.Parts[:3]...)
		return sc.Buf
	}
	cur := leaf
	idx := j
	for d := 0; d < depth-1; d++ {
		sc.Parts[0] = tagNode
		if idx&1 == 0 {
			sc.Parts[1], sc.Parts[2] = cur, proof[d*size:(d+1)*size]
		} else {
			sc.Parts[1], sc.Parts[2] = proof[d*size:(d+1)*size], cur
		}
		sc.Buf = s.HashInto(sc.Buf[:0], sc.Parts[:3]...)
		cur = sc.Buf
		idx >>= 1
	}
	sc.Parts[0], sc.Parts[1] = tagRoot, nil
	if idx&1 == 0 {
		sc.Parts[2], sc.Parts[3] = cur, proof[(depth-1)*size:]
	} else {
		sc.Parts[2], sc.Parts[3] = proof[(depth-1)*size:], cur
	}
	sc.Buf = s.HashInto(sc.Buf[:0], sc.Parts[:4]...)
	return sc.Buf
}
