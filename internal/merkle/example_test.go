package merkle_test

import (
	"fmt"

	"alpha/internal/merkle"
	"alpha/internal/suite"
)

// Example builds an ALPHA-M message tree: the keyed root is the
// pre-signature carried in the S1, and each message travels with its
// complementary branch set so it can be verified independently.
func Example() {
	s := suite.SHA1()
	key := s.Hash([]byte("undisclosed chain element"))
	msgs := [][]byte{
		[]byte("packet 0"), []byte("packet 1"),
		[]byte("packet 2"), []byte("packet 3"),
	}
	tree, err := merkle.Build(s, key, msgs)
	if err != nil {
		panic(err)
	}
	proof, _ := tree.AppendProof(nil, 2)
	fmt.Println("proof hashes:", len(proof)/s.Size())
	fmt.Println("genuine verifies:", merkle.Verify(s, key, tree.Root(), msgs[2], 2, 4, proof))
	fmt.Println("forged verifies: ", merkle.Verify(s, key, tree.Root(), []byte("forged"), 2, 4, proof))
	// Output:
	// proof hashes: 2
	// genuine verifies: true
	// forged verifies:  false
}

// ExampleAckTree shows Fig. 7's acknowledgment tree: the verifier commits
// to an ack AND a nack for every message, then opens exactly one.
func ExampleAckTree() {
	s := suite.SHA1()
	key := s.Hash([]byte("acknowledgment chain element"))
	amt, err := merkle.NewAckTree(s, key, 4)
	if err != nil {
		panic(err)
	}
	// Message 1 arrived intact: open its positive acknowledgment.
	opening, _ := amt.Open(nil, 1, true)
	fmt.Println("ack verifies:", merkle.VerifyOpening(s, key, amt.Root(), 4, &opening))
	// The same secret cannot be passed off as a nack.
	flipped := opening
	flipped.Ack = false
	fmt.Println("flipped verifies:", merkle.VerifyOpening(s, key, amt.Root(), 4, &flipped))
	// Output:
	// ack verifies: true
	// flipped verifies: false
}
