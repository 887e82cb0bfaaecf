//go:build linux && (amd64 || arm64)

package udpio

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"alpha/internal/telemetry"
)

// offloadPair builds a sender/receiver pair of default engines over
// loopback, skipping the test when the kernel refuses the offload probe.
func offloadPair(t *testing.T, sm, rm *telemetry.IOMetrics) (Conn, Conn, *net.UDPConn, *net.UDPConn) {
	t.Helper()
	apc, bpc := listenUDP(t), listenUDP(t)
	a, b := Wrap(apc, 32, sm), Wrap(bpc, 32, rm)
	if !Offloaded(a) || !Offloaded(b) {
		t.Skip("kernel lacks UDP_SEGMENT/UDP_GRO")
	}
	return a, b, apc, bpc
}

// readAll drains exactly want datagrams from c into fresh buffers.
func readAll(t *testing.T, c Conn, want int) []Message {
	t.Helper()
	in := make([]Message, want)
	for i := range in {
		in[i].Buf = make([]byte, 4096)
	}
	got := 0
	for got < want {
		n, err := c.ReadBatch(in[got:])
		if err != nil {
			t.Fatalf("ReadBatch after %d: %v", got, err)
		}
		got += n
	}
	return in
}

// TestOffloadGSORoundTrip sends an ALPHA-M-shaped burst — one odd-size S1
// plus 16 equal-size S2s — through the GSO writer to a GRO reader and
// checks every datagram survives, in order, with the send packed into one
// syscall and at most two kernel traversals.
func TestOffloadGSORoundTrip(t *testing.T) {
	var sm, rm telemetry.IOMetrics
	a, b, _, bpc := offloadPair(t, sm.Init(), rm.Init())

	const s2s = 16
	const s2len = 64
	out := make([]Message, 0, s2s+1)
	s1 := []byte("S1-signature-packet-shorter")
	out = append(out, Message{Buf: s1, N: len(s1), Addr: bpc.LocalAddr()})
	for i := 0; i < s2s; i++ {
		p := make([]byte, s2len)
		copy(p, fmt.Sprintf("S2-%02d", i))
		out = append(out, Message{Buf: p, N: s2len, Addr: bpc.LocalAddr()})
	}
	bpc.SetReadDeadline(time.Now().Add(5 * time.Second))
	sent, err := a.WriteBatch(out)
	if err != nil || sent != len(out) {
		t.Fatalf("WriteBatch = %d, %v; want %d, nil", sent, err, len(out))
	}

	in := readAll(t, b, s2s+1)
	for i := range out {
		if !bytes.Equal(in[i].Buf[:in[i].N], out[i].Buf[:out[i].N]) {
			t.Fatalf("datagram %d corrupted: got %d bytes %q, want %d bytes",
				i, in[i].N, in[i].Buf[:in[i].N], out[i].N)
		}
	}

	if got := sm.WriteBatches.Load(); got != 1 {
		t.Errorf("send syscalls = %d; want 1 (S1 + packed S2 run in one sendmmsg)", got)
	}
	if got := sm.GSOSegments.Load(); got != s2s {
		t.Errorf("GSO segments = %d; want %d", got, s2s)
	}
	if got := sm.GSOSends.Load(); got != 1 {
		t.Errorf("GSO sends = %d; want 1 (the equal-size run)", got)
	}
	if got := sm.DatagramsWritten.Load(); got != s2s+1 {
		t.Errorf("datagrams written = %d; want %d", got, s2s+1)
	}
	if rm.DatagramsRead.Load() != s2s+1 {
		t.Errorf("datagrams read = %d; want %d", rm.DatagramsRead.Load(), s2s+1)
	}
}

// TestOffloadRaggedRun: a smaller trailing datagram may close a GSO run
// (kernel rule), but a larger one must start a new header.
func TestOffloadRaggedRun(t *testing.T) {
	var sm, rm telemetry.IOMetrics
	a, b, _, bpc := offloadPair(t, sm.Init(), rm.Init())

	sizes := []int{100, 100, 60, 200}
	out := make([]Message, len(sizes))
	for i, sz := range sizes {
		p := make([]byte, sz)
		for j := range p {
			p[j] = byte('a' + i)
		}
		out[i] = Message{Buf: p, N: sz, Addr: bpc.LocalAddr()}
	}
	bpc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if sent, err := a.WriteBatch(out); err != nil || sent != len(out) {
		t.Fatalf("WriteBatch = %d, %v", sent, err)
	}
	in := readAll(t, b, len(sizes))
	for i := range out {
		if !bytes.Equal(in[i].Buf[:in[i].N], out[i].Buf[:out[i].N]) {
			t.Fatalf("datagram %d corrupted (%d bytes, want %d)", i, in[i].N, out[i].N)
		}
	}
	// [100 100 60] packs into one header (60 is the legal smaller tail);
	// 200 rides alone as a plain header in the same sendmmsg.
	if got := sm.GSOSends.Load(); got != 1 {
		t.Errorf("GSO sends = %d; want 1", got)
	}
	if got := sm.GSOSegments.Load(); got != 3 {
		t.Errorf("GSO segments = %d; want 3", got)
	}
	if got := sm.WriteBatches.Load(); got != 1 {
		t.Errorf("send syscalls = %d; want 1", got)
	}
}

// TestOffloadZeroAlloc is the hot-path acceptance check for the offload
// tier: a warm GSO write / GRO read cycle must not allocate.
func TestOffloadZeroAlloc(t *testing.T) {
	var sm, rm telemetry.IOMetrics
	a, b, _, bpc := offloadPair(t, sm.Init(), rm.Init())
	bpc.SetReadDeadline(time.Now().Add(10 * time.Second))

	const n = 8
	out := make([]Message, n)
	for i := range out {
		out[i] = Message{Buf: make([]byte, 256), N: 256, Addr: bpc.LocalAddr()}
	}
	in := make([]Message, n)
	for i := range in {
		in[i].Buf = make([]byte, 2048)
	}
	cycle := func() {
		if _, err := a.WriteBatch(out); err != nil {
			t.Fatalf("WriteBatch: %v", err)
		}
		got := 0
		for got < n {
			r, err := b.ReadBatch(in[:])
			if err != nil {
				t.Fatalf("ReadBatch: %v", err)
			}
			got += r
		}
	}
	cycle() // warm the intern cache and slab state
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 0 {
		t.Fatalf("offload read/write cycle allocates %.1f times per run; want 0", allocs)
	}
}

// TestWrapOffloadStatus: Wrap's probe decides the engine. Where the kernel
// grants UDP_SEGMENT and UDP_GRO the default is the offload engine (still
// batched underneath); WrapBatched never probes and never offloads.
func TestWrapOffloadStatus(t *testing.T) {
	c := Wrap(listenUDP(t), 8, nil)
	if !c.Batched() {
		t.Fatal("Wrap on Linux must return a batched engine, offloaded or not")
	}
	if !Offloaded(c) {
		t.Log("kernel refused the UDP_SEGMENT/UDP_GRO probe; Wrap fell back to the batched engine")
	}
	if b := WrapBatched(listenUDP(t), 8, nil); Offloaded(b) || !b.Batched() {
		t.Fatal("WrapBatched must return the plain batched engine")
	}
}
