package server

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"shadowedit/internal/diff"
	"shadowedit/internal/netsim"
	"shadowedit/internal/wire"
)

// multiRig is a server with K independent wire-level client connections.
type multiRig struct {
	srv   *Server
	conns []*netsim.Conn
}

func newMultiRig(t *testing.T, cfg Config, k int) *multiRig {
	t.Helper()
	nw := netsim.New()
	serverHost := nw.Host("super")
	lst, err := serverHost.Listen(1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name == "" {
		cfg = Defaults("super")
	}
	srv := New(cfg)
	go func() {
		_ = srv.Serve(AcceptorFunc(func() (wire.Conn, error) {
			return lst.Accept()
		}))
	}()
	t.Cleanup(func() {
		_ = lst.Close()
		srv.Close()
	})
	conns := make([]*netsim.Conn, k)
	for i := range conns {
		host := nw.Host(fmt.Sprintf("ws%d", i))
		nw.Connect(host, serverHost, netsim.LAN)
		conn, err := host.Dial("super", 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		if err := wire.Send(conn, &wire.Hello{
			Protocol: wire.ProtocolVersion, User: fmt.Sprintf("u%d", i),
			Domain: "d", ClientHost: fmt.Sprintf("ws%d", i),
		}); err != nil {
			t.Fatal(err)
		}
		if m, err := wire.Recv(conn); err != nil {
			t.Fatal(err)
		} else if _, ok := m.(*wire.HelloOK); !ok {
			t.Fatalf("hello reply = %#v", m)
		}
		conns[i] = conn
	}
	return &multiRig{srv: srv, conns: conns}
}

// TestConcurrentNotifyBurstCoalescesPulls races K sessions into notifying the
// same file version. The flight table must let exactly one pull onto the wire
// and coalesce the rest, and the one arrival must clear the flight for
// everyone. Run with -race this is also the session/flight interleaving
// soundness check.
func TestConcurrentNotifyBurstCoalescesPulls(t *testing.T) {
	const k = 8
	ref := wire.FileRef{Domain: "d", FileID: "shared:/proj/data.dat"}
	r := newMultiRig(t, Config{}, k)

	var wg sync.WaitGroup
	for _, conn := range r.conns {
		wg.Add(1)
		go func(conn *netsim.Conn) {
			defer wg.Done()
			if err := wire.Send(conn, &wire.Notify{File: ref, Version: 1, Size: 9, Sum: 1}); err != nil {
				t.Errorf("notify: %v", err)
			}
		}(conn)
	}
	wg.Wait()

	// Synchronize: a status round trip on each connection proves its notify
	// was handled; the winner sees the Pull first. Coalesced sessions must
	// see no Pull at all.
	winner := -1
	for i, conn := range r.conns {
		if err := wire.Send(conn, &wire.StatusReq{Job: 9999}); err != nil {
			t.Fatal(err)
		}
		for {
			m, err := wire.Recv(conn)
			if err != nil {
				t.Fatal(err)
			}
			switch msg := m.(type) {
			case *wire.Pull:
				if winner != -1 {
					t.Fatalf("sessions %d and %d both received a pull", winner, i)
				}
				if msg.File != ref || msg.WantVersion != 1 {
					t.Fatalf("pull = %+v", msg)
				}
				winner = i
				continue // the status reply is still coming
			case *wire.ErrorMsg:
				if msg.Code != wire.CodeUnknownJob {
					t.Fatalf("session %d: error %d %q", i, msg.Code, msg.Text)
				}
			default:
				t.Fatalf("session %d: unexpected %#v", i, m)
			}
			break
		}
	}
	if winner == -1 {
		t.Fatal("no session received a pull")
	}

	snap := r.srv.Metrics()
	if snap.PullsIssued != 1 || snap.PullsCoalesced != k-1 {
		t.Fatalf("pulls issued=%d coalesced=%d, want 1 and %d", snap.PullsIssued, snap.PullsCoalesced, k-1)
	}
	if n := r.srv.InFlightFetches(); n != 1 {
		t.Fatalf("flights in flight = %d, want 1", n)
	}

	// The single answer satisfies the flight; the ack flows back to the
	// session that transferred.
	body := []byte("v1 bytes\n")
	if err := wire.Send(r.conns[winner], &wire.FileFull{
		File: ref, Version: 1, Content: body, Sum: diff.Checksum(body),
	}); err != nil {
		t.Fatal(err)
	}
	if m, err := wire.Recv(r.conns[winner]); err != nil {
		t.Fatal(err)
	} else if ack, ok := m.(*wire.FileAck); !ok || ack.Version != 1 {
		t.Fatalf("ack = %#v", m)
	}
	if n := r.srv.InFlightFetches(); n != 0 {
		t.Fatalf("flights after arrival = %d, want 0", n)
	}

	// A repeat notify for the now-cached version must not pull again.
	quiet := (winner + 1) % k
	if err := wire.Send(r.conns[quiet], &wire.Notify{File: ref, Version: 1, Size: 9, Sum: diff.Checksum(body)}); err != nil {
		t.Fatal(err)
	}
	if err := wire.Send(r.conns[quiet], &wire.StatusReq{Job: 9999}); err != nil {
		t.Fatal(err)
	}
	if m, err := wire.Recv(r.conns[quiet]); err != nil {
		t.Fatal(err)
	} else if e, ok := m.(*wire.ErrorMsg); !ok || e.Code != wire.CodeUnknownJob {
		t.Fatalf("expected only the status reply, got %#v", m)
	}
	if snap := r.srv.Metrics(); snap.PullsIssued != 1 {
		t.Fatalf("cached-version notify re-pulled: issued=%d", snap.PullsIssued)
	}
}

// TestDeadOwnerReleasesFlight kills the session that owns an in-flight fetch
// and checks the flight table does not stay wedged: the released fetch is
// re-homed (or dropped) so a later notify can pull again.
func TestDeadOwnerReleasesFlight(t *testing.T) {
	const k = 2
	ref := wire.FileRef{Domain: "d", FileID: "shared:/proj/data.dat"}
	r := newMultiRig(t, Config{}, k)

	// Session 0 notifies and wins the flight.
	if err := wire.Send(r.conns[0], &wire.Notify{File: ref, Version: 1, Size: 9, Sum: 1}); err != nil {
		t.Fatal(err)
	}
	if m, err := wire.Recv(r.conns[0]); err != nil {
		t.Fatal(err)
	} else if _, ok := m.(*wire.Pull); !ok {
		t.Fatalf("expected pull, got %#v", m)
	}
	// Session 1's notify coalesces behind it.
	if err := wire.Send(r.conns[1], &wire.Notify{File: ref, Version: 1, Size: 9, Sum: 1}); err != nil {
		t.Fatal(err)
	}
	if err := wire.Send(r.conns[1], &wire.StatusReq{Job: 9999}); err != nil {
		t.Fatal(err)
	}
	if m, err := wire.Recv(r.conns[1]); err != nil {
		t.Fatal(err)
	} else if e, ok := m.(*wire.ErrorMsg); !ok || e.Code != wire.CodeUnknownJob {
		t.Fatalf("expected status reply, got %#v", m)
	}

	// Kill the owner without answering. Its flights must be released.
	_ = r.conns[0].Close()
	deadline := time.Now().Add(5 * time.Second)
	for r.srv.SessionCount() != 1 || r.srv.InFlightFetches() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("flight not released after owner death: sessions=%d flights=%d",
				r.srv.SessionCount(), r.srv.InFlightFetches())
		}
		runtime.Gosched()
	}

	// With the flight gone, session 1 can pull the file itself.
	if err := wire.Send(r.conns[1], &wire.Notify{File: ref, Version: 2, Size: 9, Sum: 2}); err != nil {
		t.Fatal(err)
	}
	if m, err := wire.Recv(r.conns[1]); err != nil {
		t.Fatal(err)
	} else if p, ok := m.(*wire.Pull); !ok || p.WantVersion != 2 {
		t.Fatalf("expected pull v2, got %#v", m)
	}
}
