// Binary codec helpers: append-style field encoders and a bounds-checked,
// aliasing reader.
//
// The codecs are deliberately boring: fixed-width big-endian integers,
// digests whose length is implied by the association's hash suite, and
// explicit counts for anything repeated. Every read is bounds-checked and a
// failed parse returns an error rather than panicking, because relays parse
// packets from unauthenticated sources by design.
//
// The reader never copies: every byte field it returns is a subslice of the
// input, capacity-clipped so that appending to it cannot scribble over the
// following field. Whoever keeps a field past the life of the datagram's
// buffer must copy it (see Decode).

package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated is returned when a packet ends before a declared field.
var ErrTruncated = errors.New("packet: truncated packet")

// appendDigest appends a fixed-size digest, validating its length.
func appendDigest(b, d []byte, size int) ([]byte, error) {
	if len(d) != size {
		return b, fmt.Errorf("packet: digest length %d, want %d", len(d), size)
	}
	return append(b, d...), nil
}

// appendDigests appends a flat run of fixed-size digests, validating that
// it holds a whole number of them.
func appendDigests(b, flat []byte, size int) ([]byte, error) {
	if len(flat)%size != 0 {
		return b, fmt.Errorf("packet: digest list of %d bytes is not a multiple of %d", len(flat), size)
	}
	return append(b, flat...), nil
}

// append32 appends a u32 length prefix followed by the raw bytes.
func append32(b, field []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(field)))
	return append(b, field...)
}

// append16 appends a u16 length prefix followed by the raw bytes.
func append16(b, field []byte) ([]byte, error) {
	if len(field) > 0xFFFF {
		return b, fmt.Errorf("packet: field of %d bytes exceeds 16-bit length prefix", len(field))
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(field)))
	return append(b, field...), nil
}

// Digest returns digest i of a flat run of size-byte digests (an S1's MAC
// block or root list, an S2/A2 proof), capacity-clipped to the digest.
func Digest(flat []byte, i, size int) []byte {
	return flat[i*size : (i+1)*size : (i+1)*size]
}

// Retain copies field onto the end of block and returns the copy, capacity-
// clipped; a nil or empty field stays nil. It is how handlers keep decoded
// fields past the datagram's life: with block sized up front for every
// field one packet contributes, they all share a single allocation.
func Retain(block *[]byte, field []byte) []byte {
	if len(field) == 0 {
		return nil
	}
	off := len(*block)
	*block = append(*block, field...)
	return (*block)[off:len(*block):len(*block)]
}

// reader consumes an encoded packet without copying it.
type reader struct {
	buf []byte
	off int
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

func (r *reader) u8() (uint8, error) {
	if r.remaining() < 1 {
		return 0, ErrTruncated
	}
	v := r.buf[r.off]
	r.off++
	return v, nil
}

func (r *reader) u16() (uint16, error) {
	if r.remaining() < 2 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

// take returns the next n bytes as a capacity-clipped subslice of the input.
// Fixed-size digests are take(h); a run of count digests is take(count*h).
func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, ErrTruncated
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b, nil
}

// field32 reads a u32-length-prefixed byte field, enforcing a sanity cap.
func (r *reader) field32(maxLen int) ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int(n) > maxLen {
		return nil, ErrTruncated
	}
	return r.take(int(n))
}

// field16 reads a u16-length-prefixed byte field. A zero-length field
// decodes as nil so that encode/decode round-trips are exact.
func (r *reader) field16() ([]byte, error) {
	n, err := r.u16()
	if err != nil {
		return nil, err
	}
	b, err := r.take(int(n))
	if n == 0 {
		return nil, err
	}
	return b, err
}
