// BenchmarkUDPBurst measures the I/O engine ladder: how many syscalls, how
// many kernel UDP-stack traversals, and how much wall time it takes to push
// a real ALPHA-C/M burst (the S1 plus its S2 packets) through a UDP socket
// pair — portable one-datagram-at-a-time, batched recvmmsg/sendmmsg, and
// the default engine (GSO/GRO segmentation offload).

package udptransport

import (
	"fmt"
	"net"
	"testing"
	"time"

	"alpha/internal/core"
	"alpha/internal/packet"
	"alpha/internal/suite"
	"alpha/internal/telemetry"
	"alpha/internal/udpio"
)

// captureBurst produces the sender-side datagrams of one n-message burst:
// the S1 announcing it plus, once the A1 comes back, the n S2s — the exact
// packet train the coalescing writer pushes out in one sendmmsg.
func captureBurst(b *testing.B, mode packet.Mode, n int) [][]byte {
	b.Helper()
	cfg := core.Config{
		Suite:     suite.SHA1(),
		Mode:      mode,
		Reliable:  false,
		ChainLen:  4096,
		BatchSize: n,
	}
	pi, pr, _, err := core.Provision(cfg)
	if err != nil {
		b.Fatal(err)
	}
	snd, err := core.NewPreconfiguredEndpoint(pi)
	if err != nil {
		b.Fatal(err)
	}
	rcv, err := core.NewPreconfiguredEndpoint(pr)
	if err != nil {
		b.Fatal(err)
	}
	now := time.Unix(1700000000, 0)
	payload := make([]byte, 512)
	for i := 0; i < n; i++ {
		if _, err := snd.Send(now, payload); err != nil {
			b.Fatal(err)
		}
	}
	snd.Flush(now)
	var burst [][]byte
	// Ping-pong until the exchange settles, collecting every sender-side
	// datagram (S1, then the S2 burst released by the A1).
	for round := 0; round < 8; round++ {
		out, _ := snd.Poll(now)
		burst = append(burst, out...)
		for _, raw := range out {
			if _, err := rcv.Handle(now, raw); err != nil {
				b.Fatal(err)
			}
		}
		back, _ := rcv.Poll(now)
		for _, raw := range back {
			if _, err := snd.Handle(now, raw); err != nil {
				b.Fatal(err)
			}
		}
	}
	if len(burst) < n {
		b.Fatalf("burst capture: got %d datagrams, want >= %d", len(burst), n)
	}
	return burst
}

func BenchmarkUDPBurst(b *testing.B) {
	for _, mode := range []packet.Mode{packet.ModeC, packet.ModeM} {
		burst := captureBurst(b, mode, 16)
		for _, eng := range []string{"default", "batched", "portable"} {
			b.Run(fmt.Sprintf("%s/n=16/%s", mode, eng), func(b *testing.B) {
				benchBurst(b, burst, eng)
			})
		}
	}
}

// benchBurst replays one captured burst per iteration through a loopback
// socket pair and reads every datagram back, reporting syscalls, kernel
// UDP traversals, and datagram throughput from the engines' own accounting.
func benchBurst(b *testing.B, burst [][]byte, engine string) {
	spc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer spc.Close()
	rpc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer rpc.Close()

	var wm, rm telemetry.IOMetrics
	var w, r udpio.Conn
	switch engine {
	case "portable":
		w, r = udpio.Portable(spc, &wm), udpio.Portable(rpc, &rm)
	case "batched":
		w, r = udpio.WrapBatched(spc, udpio.DefaultBatch, &wm), udpio.WrapBatched(rpc, udpio.DefaultBatch, &rm)
		if !w.Batched() || !r.Batched() {
			b.Skip("batched engine unavailable on this platform")
		}
	case "default":
		w, r = udpio.Wrap(spc, udpio.DefaultBatch, &wm), udpio.Wrap(rpc, udpio.DefaultBatch, &rm)
		if !udpio.Offloaded(w) || !udpio.Offloaded(r) {
			b.Skip("kernel lacks UDP_SEGMENT/UDP_GRO")
		}
	default:
		b.Fatalf("unknown engine %q", engine)
	}

	out := make([]udpio.Message, len(burst))
	for i, raw := range burst {
		out[i] = udpio.Message{Buf: raw, N: len(raw), Addr: rpc.LocalAddr()}
	}
	in := make([]udpio.Message, len(burst))
	for i := range in {
		in[i].Buf = make([]byte, packet.MaxPacketSize)
	}
	rpc.SetReadDeadline(time.Now().Add(time.Minute))

	bytesPerBurst := 0
	for _, raw := range burst {
		bytesPerBurst += len(raw)
	}
	b.SetBytes(int64(bytesPerBurst))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.WriteBatch(out); err != nil {
			b.Fatal(err)
		}
		for got := 0; got < len(burst); {
			n, err := r.ReadBatch(in)
			if err != nil {
				b.Fatal(err)
			}
			got += n
		}
	}
	b.StopTimer()
	// Syscalls straight from the engines' accounting; kernel UDP-stack
	// traversals from the offload counters — a GSO send of k segments is
	// one traversal (saving k-1), a GRO datagram split into k segments
	// likewise on receive. Without offload both equal the datagram count.
	syscalls := wm.WriteBatches.Load() + rm.ReadBatches.Load()
	sendTrav := wm.DatagramsWritten.Load() - wm.GSOSegments.Load() + wm.GSOSends.Load()
	recvTrav := rm.DatagramsRead.Load() - rm.GROSegments.Load() + rm.GROSplits.Load()
	b.ReportMetric(float64(syscalls)/float64(b.N), "syscalls/op")
	b.ReportMetric(float64(wm.WriteBatches.Load())/float64(b.N), "sendsyscalls/op")
	b.ReportMetric(float64(sendTrav)/float64(b.N), "sendtraversals/op")
	b.ReportMetric(float64(recvTrav)/float64(b.N), "recvtraversals/op")
	b.ReportMetric(float64(len(burst)), "datagrams/op")
}
