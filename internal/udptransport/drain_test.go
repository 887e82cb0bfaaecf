// Deterministic checks of the session drain: a worker turn feeds every
// queued datagram to the engine and then pumps once, so the replies to a
// burst leave in one WriteBatch. The server here has no sockets and its
// goroutines are stopped before the test drives runSession by hand, so
// nothing but the test touches the session.

package udptransport

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"alpha/internal/core"
	"alpha/internal/packet"
	"alpha/internal/suite"
	"alpha/internal/udpio"
)

// recordingConn is a udpio.Conn that sends nothing and records the packet
// types of every WriteBatch call.
type recordingConn struct {
	mu     sync.Mutex
	writes [][]packet.Type
}

func (c *recordingConn) ReadBatch([]udpio.Message) (int, error) {
	return 0, errors.New("recordingConn: no reads")
}

func (c *recordingConn) WriteBatch(ms []udpio.Message) (int, error) {
	types := make([]packet.Type, len(ms))
	for i := range ms {
		types[i] = packet.Type(ms[i].Buf[3])
	}
	c.mu.Lock()
	c.writes = append(c.writes, types)
	c.mu.Unlock()
	return len(ms), nil
}

func (c *recordingConn) Batched() bool { return true }

// quiescentServer builds a socketless server and stops its workers and
// timer loop, leaving runSession to the test.
func quiescentServer(t *testing.T, opts ServerOptions) *Server {
	t.Helper()
	opts.Workers = 1
	srv := NewServerWith(core.Config{}, opts)
	srv.Close()
	return srv
}

// queue puts one datagram on the session's inbox as the dispatcher would,
// without scheduling it on a worker.
func queue(t *testing.T, sess *Session, now time.Time, from net.Addr, via udpio.Conn, raw []byte) {
	t.Helper()
	bp := bufPool.Get().(*[]byte)
	n := copy(*bp, raw)
	select {
	case sess.inbox <- datagram{now: now, from: from, via: via, buf: bp, n: n}:
	default:
		t.Fatal("inbox full")
	}
}

// TestSessionDrainPumpsOnce: the 16 S2s of one reliable ALPHA-M n=16
// exchange, drained in one worker turn, are answered by their 16 A2s in a
// single WriteBatch — not one write per S2.
func TestSessionDrainPumpsOnce(t *testing.T) {
	const n = 16
	cfg := core.Config{Suite: suite.SHA1(), Mode: packet.ModeM, Reliable: true, ChainLen: 256, BatchSize: n}
	pi, pr, _, err := core.Provision(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := core.NewPreconfiguredEndpoint(pi)
	if err != nil {
		t.Fatal(err)
	}
	srvEp, err := core.NewPreconfiguredEndpoint(pr)
	if err != nil {
		t.Fatal(err)
	}

	// S1 → A1 → S2s, straight between the engines.
	now := time.Unix(1700000000, 0)
	for i := 0; i < n; i++ {
		if _, err := cli.Send(now, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	cli.Flush(now)
	s1, _ := cli.Poll(now)
	if len(s1) != 1 {
		t.Fatalf("client emitted %d datagrams, want the S1", len(s1))
	}
	srvEp.Handle(now, s1[0])
	a1, _ := srvEp.Poll(now)
	if len(a1) != 1 {
		t.Fatalf("server emitted %d datagrams, want the A1", len(a1))
	}
	cli.Handle(now, a1[0])
	s2s, _ := cli.Poll(now)
	if len(s2s) != n {
		t.Fatalf("client emitted %d datagrams, want %d S2s", len(s2s), n)
	}

	srv := quiescentServer(t, ServerOptions{})
	rec := &recordingConn{}
	peer := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9999}
	sess := newSession(srv, srvEp, srvEp.Assoc(), peer, rec)
	for _, raw := range s2s {
		if packet.Type(raw[3]) != packet.TypeS2 {
			t.Fatalf("client datagram type %v, want S2", packet.Type(raw[3]))
		}
		queue(t, sess, now, peer, rec, raw)
	}
	srv.runSession(sess)

	if len(rec.writes) != 1 {
		t.Fatalf("drain issued %d WriteBatch calls, want 1", len(rec.writes))
	}
	if got := rec.writes[0]; len(got) != n {
		t.Fatalf("WriteBatch carried %d datagrams, want %d A2s", len(got), n)
	}
	for i, typ := range rec.writes[0] {
		if typ != packet.TypeA2 {
			t.Fatalf("datagram %d is %v, want A2", i, typ)
		}
	}
}

// TestSessionDrainRetiredWritesNothing: a session retired inside handle —
// the accept backlog is full when its handshake establishes — must not
// pump its HS2 out after the drain.
func TestSessionDrainRetiredWritesNothing(t *testing.T) {
	cfg := core.Config{Suite: suite.SHA1(), Mode: packet.ModeBase, ChainLen: 16}
	cli, err := core.NewEndpoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	hs1, err := cli.StartHandshake(now)
	if err != nil {
		t.Fatal(err)
	}
	srvEp, err := core.NewEndpoint(cfg)
	if err != nil {
		t.Fatal(err)
	}

	srv := quiescentServer(t, ServerOptions{AcceptBacklog: 1})
	srv.pending = append(srv.pending, &Session{}) // backlog already full
	rec := &recordingConn{}
	peer := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9999}
	sess := newSession(srv, srvEp, cli.Assoc(), peer, rec)
	queue(t, sess, now, peer, rec, hs1)
	srv.runSession(sess)

	if !sess.stopped() {
		t.Fatal("session not retired on a full accept backlog")
	}
	if got := srv.Telemetry().AcceptBacklogDrops.Load(); got != 1 {
		t.Fatalf("AcceptBacklogDrops = %d, want 1", got)
	}
	if len(rec.writes) != 0 {
		t.Fatalf("retired session issued %d writes, want none", len(rec.writes))
	}
}
