// Benchmarks mirroring the paper's evaluation, one benchmark family per
// table/figure. `go test -bench=. -benchmem` regenerates the raw numbers;
// cmd/alphabench formats them as the paper's tables with the analytic
// models alongside.
package alpha

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"alpha/internal/analytic"
	"alpha/internal/baseline"
	"alpha/internal/core"
	"alpha/internal/hashchain"
	"alpha/internal/merkle"
	"alpha/internal/obs"
	"alpha/internal/packet"
	"alpha/internal/relay"
	"alpha/internal/suite"
)

// benchPair is a pre-established endpoint pair with manual pumping.
type benchPair struct {
	a, b *core.Endpoint
	now  time.Time
}

func newBenchPair(b *testing.B, cfg core.Config) *benchPair {
	b.Helper()
	ea, err := core.NewEndpoint(cfg)
	if err != nil {
		b.Fatal(err)
	}
	eb, err := core.NewEndpoint(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p := &benchPair{a: ea, b: eb, now: time.Unix(1_700_000_000, 0)}
	hs1, err := ea.StartHandshake(p.now)
	if err != nil {
		b.Fatal(err)
	}
	p.deliver(eb, hs1)
	p.pump(10)
	if !ea.Established() || !eb.Established() {
		b.Fatal("bench handshake failed")
	}
	return p
}

func (p *benchPair) deliver(dst *core.Endpoint, raw []byte) {
	if _, err := dst.Handle(p.now, raw); err != nil {
		panic(err)
	}
}

func (p *benchPair) pump(rounds int) {
	for i := 0; i < rounds; i++ {
		p.now = p.now.Add(5 * time.Millisecond)
		outA, _ := p.a.Poll(p.now)
		outB, _ := p.b.Poll(p.now)
		if len(outA) == 0 && len(outB) == 0 {
			return
		}
		for _, raw := range outA {
			p.deliver(p.b, raw)
		}
		for _, raw := range outB {
			p.deliver(p.a, raw)
		}
	}
}

// exchange pushes one batch through a full signature exchange.
func (p *benchPair) exchange(b *testing.B, msgs [][]byte) {
	for _, m := range msgs {
		if _, err := p.a.Send(p.now, m); err != nil {
			b.Fatal(err)
		}
	}
	p.a.Flush(p.now)
	p.pump(20)
}

// BenchmarkTable1 measures full protected exchanges per mode: the cost that
// Table 1 decomposes into hash operations.
func BenchmarkTable1(b *testing.B) {
	cases := []struct {
		name  string
		mode  packet.Mode
		batch int
	}{
		{"ALPHA/n=1", packet.ModeBase, 1},
		{"ALPHA-C/n=16", packet.ModeC, 16},
		{"ALPHA-M/n=16", packet.ModeM, 16},
		{"ALPHA-CM/n=16", packet.ModeCM, 16},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := core.Config{Mode: c.mode, Reliable: true, ChainLen: 2 * (b.N + 16), BatchSize: c.batch, FlushDelay: -1}
			p := newBenchPair(b, cfg)
			msgs := make([][]byte, c.batch)
			for i := range msgs {
				msgs[i] = bytes.Repeat([]byte{byte(i)}, 512)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.exchange(b, msgs)
			}
			b.ReportMetric(float64(b.N*c.batch), "msgs")
		})
	}
}

// BenchmarkTable2 reports the live buffer bytes behind Table 2's columns.
func BenchmarkTable2(b *testing.B) {
	for _, mode := range []packet.Mode{packet.ModeC, packet.ModeM} {
		name := packet.Mode(mode).String()
		b.Run(fmt.Sprintf("%s/n=64", name), func(b *testing.B) {
			b.ReportAllocs()
			var verifierBytes int
			for i := 0; i < b.N; i++ {
				cfg := core.Config{Mode: mode, ChainLen: 64, BatchSize: 64, FlushDelay: -1, MaxOutstanding: 1}
				p := newBenchPair(b, cfg)
				for j := 0; j < 64; j++ {
					if _, err := p.a.Send(p.now, bytes.Repeat([]byte{byte(j)}, 1024)); err != nil {
						b.Fatal(err)
					}
				}
				p.a.Flush(p.now)
				// Deliver only the S1 so buffers are at their peak.
				s1, _ := p.a.Poll(p.now)
				for _, raw := range s1 {
					if hdr, _, err := packet.Decode(raw); err == nil && hdr.Type == packet.TypeS1 {
						p.deliver(p.b, raw)
					}
				}
				sig, _ := p.b.RxBufferedBytes()
				verifierBytes = sig
			}
			b.ReportMetric(float64(verifierBytes), "verifier-bytes")
		})
	}
}

// BenchmarkTable3 reports the acknowledgment-state bytes behind Table 3.
func BenchmarkTable3(b *testing.B) {
	for _, n := range []int{1, 64} {
		b.Run(fmt.Sprintf("reliable/n=%d", n), func(b *testing.B) {
			mode := packet.ModeBase
			if n > 1 {
				mode = packet.ModeC
			}
			b.ReportAllocs()
			var ackBytes int
			for i := 0; i < b.N; i++ {
				cfg := core.Config{Mode: mode, Reliable: true, ChainLen: 64, BatchSize: n, FlushDelay: -1, MaxOutstanding: 1}
				p := newBenchPair(b, cfg)
				for j := 0; j < n; j++ {
					if _, err := p.a.Send(p.now, []byte("x")); err != nil {
						b.Fatal(err)
					}
				}
				p.a.Flush(p.now)
				s1, _ := p.a.Poll(p.now)
				for _, raw := range s1 {
					p.deliver(p.b, raw)
				}
				p.b.Poll(p.now) // generates the A1 + pre-(n)ack state
				_, ackBytes = p.b.RxBufferedBytes()
			}
			b.ReportMetric(float64(ackBytes), "verifier-ack-bytes")
		})
	}
}

// BenchmarkTable4 times the individual signature steps and the asymmetric
// baselines of Table 4.
func BenchmarkTable4(b *testing.B) {
	b.Run("ALPHA/full-signature", func(b *testing.B) {
		cfg := core.Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 2 * (b.N + 8), FlushDelay: -1}
		p := newBenchPair(b, cfg)
		payload := bytes.Repeat([]byte{0x5A}, 512)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.exchange(b, [][]byte{payload})
		}
	})
	b.Run("SHA1/20B", func(b *testing.B) {
		s := suite.SHA1()
		in := bytes.Repeat([]byte{1}, 20)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Hash(in)
		}
	})
	rsa, err := baseline.NewRSASigner(1024)
	if err != nil {
		b.Fatal(err)
	}
	msg := bytes.Repeat([]byte{2}, 512)
	sig, _ := rsa.Sign(msg)
	b.Run("RSA1024/sign", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rsa.Sign(msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("RSA1024/verify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := rsa.Verify(msg, sig); err != nil {
				b.Fatal(err)
			}
		}
	})
	dsa, err := baseline.NewDSASigner()
	if err != nil {
		b.Fatal(err)
	}
	dsig, _ := dsa.Sign(msg)
	b.Run("DSA1024/sign", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dsa.Sign(msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DSA1024/verify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := dsa.Verify(msg, dsig); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable5 times digests over the paper's two input sizes per suite.
func BenchmarkTable5(b *testing.B) {
	for _, s := range []suite.Suite{suite.SHA1(), suite.SHA256(), suite.MMO()} {
		for _, size := range []int{20, 1024} {
			in := bytes.Repeat([]byte{3}, size)
			b.Run(fmt.Sprintf("%s/%dB", s.Name(), size), func(b *testing.B) {
				b.SetBytes(int64(size))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s.Hash(in)
				}
			})
		}
	}
}

// BenchmarkTable6 times ALPHA-M S2 verification across tree sizes: the
// "Processing" column of Table 6, measured on the real verifier path.
func BenchmarkTable6(b *testing.B) {
	s := suite.SHA1()
	for _, leaves := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("leaves=%d", leaves), func(b *testing.B) {
			key := s.Hash([]byte("element"))
			msgs := make([][]byte, leaves)
			payload := analytic.PerPacketPayload(leaves, 1024, s.Size())
			for i := range msgs {
				msgs[i] = bytes.Repeat([]byte{byte(i)}, payload)
			}
			tree, err := merkle.Build(s, key, msgs)
			if err != nil {
				b.Fatal(err)
			}
			proofs := make([][]byte, leaves)
			for i := range proofs {
				if proofs[i], err = tree.AppendProof(nil, i); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % leaves
				if !merkle.Verify(s, key, tree.Root(), msgs[j], j, leaves, proofs[j]) {
					b.Fatal("verify failed")
				}
			}
		})
	}
}

// BenchmarkFig5 exercises the machinery behind Figure 5: building the tree
// and producing every proof for a batch (signer side of one S1's worth of
// data).
func BenchmarkFig5(b *testing.B) {
	s := suite.SHA1()
	for _, n := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("batch=%d", n), func(b *testing.B) {
			key := s.Hash([]byte("k"))
			msgs := make([][]byte, n)
			for i := range msgs {
				msgs[i] = bytes.Repeat([]byte{byte(i)}, 256)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tree, err := merkle.Build(s, key, msgs)
				if err != nil {
					b.Fatal(err)
				}
				proof := make([]byte, 0, tree.ProofDepth()*s.Size())
				for j := 0; j < n; j++ {
					if _, err := tree.AppendProof(proof, j); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(analytic.STotal(n, 1280, s.Size())), "signed-bytes-per-S1")
		})
	}
}

// BenchmarkFig6 reports Figure 6's overhead ratio as a benchmark metric
// while timing the analytic sweep itself.
func BenchmarkFig6(b *testing.B) {
	for _, spacket := range []int{128, 512, 1280} {
		b.Run(fmt.Sprintf("packet=%dB", spacket), func(b *testing.B) {
			b.ReportAllocs()
			var ratio float64
			for i := 0; i < b.N; i++ {
				ratio = analytic.OverheadRatio(1024, spacket, 20)
			}
			b.ReportMetric(ratio, "bytes-per-signed-byte@n=1024")
		})
	}
}

// BenchmarkWMNRelayThroughput measures a relay's verifiable S2 throughput —
// the quantity §4.1.2 bounds at ~20 Mbit/s for 2008 mesh routers. One
// exchange's S2 packets are pre-captured and replayed through the real
// relay verification path; b.SetBytes makes `go test -bench` report MB/s.
func BenchmarkWMNRelayThroughput(b *testing.B) {
	for _, tc := range []struct {
		name string
		mode packet.Mode
	}{
		{"ALPHA-C", packet.ModeC},
		{"ALPHA-M", packet.ModeM},
	} {
		b.Run(tc.name, func(b *testing.B) {
			const batch = 20
			const payloadSize = 1024
			cfg := core.Config{Mode: tc.mode, ChainLen: 2 * (b.N/batch + 8), BatchSize: batch, FlushDelay: -1}
			p := newBenchPair(b, cfg)
			r := relay.New(relay.Config{})
			// Let the relay learn the association from a replayed
			// handshake... simpler: re-provision is not possible here,
			// so replay the S1/A1 exchange through it after seeding
			// via observed packets is not available either. Instead,
			// run the protocol THROUGH the relay.
			payload := bytes.Repeat([]byte{0x77}, payloadSize)
			// Prime: relay must observe the handshake; newBenchPair
			// already completed it privately, so rebuild endpoints
			// with the relay in the loop.
			a, err := core.NewEndpoint(cfg)
			if err != nil {
				b.Fatal(err)
			}
			bb, err := core.NewEndpoint(cfg)
			if err != nil {
				b.Fatal(err)
			}
			now := p.now
			through := func(dst *core.Endpoint, raw []byte) {
				if d := r.Process(now, raw); d.Verdict != relay.Forward {
					b.Fatalf("relay dropped: %v", d.Reason)
				}
				dst.Handle(now, raw)
			}
			hs1, err := a.StartHandshake(now)
			if err != nil {
				b.Fatal(err)
			}
			through(bb, hs1)
			out, _ := bb.Poll(now)
			for _, raw := range out {
				through(a, raw)
			}
			if !a.Established() {
				b.Fatal("bench handshake failed")
			}
			b.SetBytes(payloadSize)
			b.ReportAllocs()
			b.ResetTimer()
			verified := 0
			for verified < b.N {
				b.StopTimer()
				for i := 0; i < batch; i++ {
					if _, err := a.Send(now, payload); err != nil {
						b.Fatal(err)
					}
				}
				a.Flush(now)
				s1, _ := a.Poll(now)
				for _, raw := range s1 {
					through(bb, raw)
				}
				a1, _ := bb.Poll(now)
				for _, raw := range a1 {
					through(a, raw)
				}
				s2s, _ := a.Poll(now)
				b.StartTimer()
				// Timed region: relay verification of the S2 stream.
				for _, raw := range s2s {
					if d := r.Process(now, raw); d.Verdict != relay.Forward {
						b.Fatalf("relay dropped S2: %v", d.Reason)
					}
					verified++
				}
				b.StopTimer()
				for _, raw := range s2s {
					bb.Handle(now, raw)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkRelaySpans measures the relay verification path with hop-by-hop
// exchange tracing off and on — the pair BENCH_obs.json records to hold the
// span emit path to its <=3% throughput budget. Same replay harness as
// BenchmarkWMNRelayThroughput, ALPHA-C only (the mode with the hottest
// per-packet relay work).
func BenchmarkRelaySpans(b *testing.B) {
	for _, tc := range []struct {
		name string
		ring *obs.SpanRing
	}{
		{"tracing=off", nil},
		{"tracing=on", obs.NewSpanRing(8192)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			const batch = 20
			const payloadSize = 1024
			cfg := core.Config{Mode: packet.ModeC, ChainLen: 2 * (b.N/batch + 8), BatchSize: batch, FlushDelay: -1}
			r := relay.New(relay.Config{Spans: tc.ring})
			payload := bytes.Repeat([]byte{0x77}, payloadSize)
			a, err := core.NewEndpoint(cfg)
			if err != nil {
				b.Fatal(err)
			}
			bb, err := core.NewEndpoint(cfg)
			if err != nil {
				b.Fatal(err)
			}
			now := time.Now()
			through := func(dst *core.Endpoint, raw []byte) {
				if d := r.Process(now, raw); d.Verdict != relay.Forward {
					b.Fatalf("relay dropped: %v", d.Reason)
				}
				dst.Handle(now, raw)
			}
			hs1, err := a.StartHandshake(now)
			if err != nil {
				b.Fatal(err)
			}
			through(bb, hs1)
			out, _ := bb.Poll(now)
			for _, raw := range out {
				through(a, raw)
			}
			if !a.Established() {
				b.Fatal("bench handshake failed")
			}
			b.SetBytes(payloadSize)
			b.ReportAllocs()
			b.ResetTimer()
			verified := 0
			for verified < b.N {
				b.StopTimer()
				for i := 0; i < batch; i++ {
					if _, err := a.Send(now, payload); err != nil {
						b.Fatal(err)
					}
				}
				a.Flush(now)
				s1, _ := a.Poll(now)
				for _, raw := range s1 {
					through(bb, raw)
				}
				a1, _ := bb.Poll(now)
				for _, raw := range a1 {
					through(a, raw)
				}
				s2s, _ := a.Poll(now)
				b.StartTimer()
				for _, raw := range s2s {
					if d := r.Process(now, raw); d.Verdict != relay.Forward {
						b.Fatalf("relay dropped S2: %v", d.Reason)
					}
					verified++
				}
				b.StopTimer()
				for _, raw := range s2s {
					bb.Handle(now, raw)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkSuiteOps measures the primitive operations underneath every
// protocol path — one digest, one MAC, one hash-chain step — through the
// *Into APIs with a caller-owned destination buffer. The interesting column
// is allocs/op: Hash and chain-step must be zero for SHA-1 and SHA-256.
// (MMO re-keys AES on every block, so its allocations are inherent to the
// construction, not to the call path.)
func BenchmarkSuiteOps(b *testing.B) {
	for _, s := range []suite.Suite{suite.SHA1(), suite.SHA256(), suite.MMO()} {
		in := bytes.Repeat([]byte{5}, 20)
		key := bytes.Repeat([]byte{6}, s.Size())
		b.Run(s.Name()+"/Hash", func(b *testing.B) {
			dst := make([]byte, 0, s.Size())
			var parts [1][]byte
			parts[0] = in
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = s.HashInto(dst[:0], parts[:]...)
			}
		})
		b.Run(s.Name()+"/MAC", func(b *testing.B) {
			dst := make([]byte, 0, s.Size())
			var parts [1][]byte
			parts[0] = in
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = s.MACInto(dst[:0], key, parts[:]...)
			}
		})
		b.Run(s.Name()+"/chain-step", func(b *testing.B) {
			tag := hashchain.TagS1
			cur := append(make([]byte, 0, s.Size()), key...)
			scratch := make([]byte, 0, s.Size())
			var parts [2][]byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				parts[0] = tag
				parts[1] = cur
				scratch = s.HashInto(scratch[:0], parts[:]...)
				cur, scratch = scratch, cur
			}
		})
	}
}

// BenchmarkWSN measures the MMO hash on the paper's two WSN input sizes
// (§4.1.3: 16 B and 84 B).
func BenchmarkWSN(b *testing.B) {
	s := suite.MMO()
	for _, size := range []int{16, 84} {
		in := bytes.Repeat([]byte{4}, size)
		b.Run(fmt.Sprintf("MMO/%dB", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Hash(in)
			}
		})
	}
	b.Run("ALPHA-C/n=5/100B-messages", func(b *testing.B) {
		cfg := core.Config{Suite: s, Mode: packet.ModeC, Reliable: true, ChainLen: 2 * (b.N + 8), BatchSize: 5, FlushDelay: -1}
		p := newBenchPair(b, cfg)
		msgs := make([][]byte, 5)
		for i := range msgs {
			msgs[i] = bytes.Repeat([]byte{byte(i)}, 100)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.exchange(b, msgs)
		}
		b.ReportMetric(float64(5*b.N), "msgs")
	})
}
