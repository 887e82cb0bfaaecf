// Bundles: several ALPHA packets in one datagram.
//
// §3.2.1 of the paper observes that "a host that acts as signer and
// verifier can combine the packet transmissions of both directions and send
// A and S packets of independent simplex channels in the same packet."
// A Bundle is that container: an outer frame carrying whole encoded ALPHA
// packets, each with its own header, so acknowledgments of the incoming
// channel ride along with signatures of the outgoing one (and, under
// ALPHA-C/M, the many S2 packets of one batch share datagrams).

package packet

import (
	"errors"
	"fmt"

	"alpha/internal/suite"
)

// TypeBundle identifies the aggregate container.
const TypeBundle Type = 7

// MaxBundlePackets bounds the sub-packets of one bundle.
const MaxBundlePackets = 64

// Bundle is a list of encoded ALPHA packets traveling as one datagram.
// Bundles must not nest.
type Bundle struct {
	Packets [][]byte
}

// Type implements Message.
func (*Bundle) Type() Type { return TypeBundle }

func (b *Bundle) appendBody(out []byte) ([]byte, error) {
	if len(b.Packets) < 2 || len(b.Packets) > MaxBundlePackets {
		return out, fmt.Errorf("bundle of %d packets, want 2..%d", len(b.Packets), MaxBundlePackets)
	}
	out = append(out, uint8(len(b.Packets)))
	for i, raw := range b.Packets {
		if len(raw) < HeaderSize {
			return out, fmt.Errorf("bundle packet %d too short", i)
		}
		if Type(raw[3]) == TypeBundle {
			return out, errNestedBundle
		}
		var err error
		if out, err = append16(out, raw); err != nil {
			return out, err
		}
	}
	return out, nil
}

var errNestedBundle = errors.New("bundles must not nest")

// decode parses the sub-packet list. The list itself is the one allocation
// of the decoder; each entry aliases the datagram like every other field.
func (b *Bundle) decode(r *reader) error {
	count, err := r.u8()
	if err != nil {
		return err
	}
	if count < 2 || int(count) > MaxBundlePackets {
		return fmt.Errorf("bundle count %d out of range", count)
	}
	b.Packets = make([][]byte, count)
	for i := range b.Packets {
		raw, err := r.field16()
		if err != nil {
			return err
		}
		if len(raw) < HeaderSize {
			return ErrTruncated
		}
		if Type(raw[3]) == TypeBundle {
			return errNestedBundle
		}
		b.Packets[i] = raw
	}
	return nil
}

// EncodeBundle wraps already-encoded packets into one datagram. The header
// needs only the association and suite; sub-packets carry their own full
// headers.
func EncodeBundle(sid suite.ID, assoc uint64, flags uint8, raws [][]byte) ([]byte, error) {
	hdr := Header{Type: TypeBundle, Suite: sid, Flags: flags, Assoc: assoc}
	return Encode(hdr, &Bundle{Packets: raws})
}

// BundleOverhead is the fixed wire cost of bundling: the outer header, the
// count byte, plus a per-packet length prefix.
func BundleOverhead(n int) int { return HeaderSize + 1 + 2*n }
