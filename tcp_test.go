package shadow_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	shadow "shadowedit"
	"shadowedit/internal/wire"
)

// TestTCPDeployment drives the real-TCP path the cmd/shadowd and cmd/shadow
// binaries use: a server on a loopback listener, a client over DialTCP, one
// full job cycle.
func TestTCPDeployment(t *testing.T) {
	srv := shadow.NewServer(shadow.DefaultServerConfig("tcp-super"))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- shadow.ServeTCP(srv, ln) }()
	defer func() {
		_ = ln.Close()
		srv.Close()
		<-serveDone
	}()

	universe := shadow.NewUniverse("tcp-dom")
	universe.AddHost("laptop")
	if err := universe.WriteFile("laptop", "/run.job", []byte("sort d\nwc d\n")); err != nil {
		t.Fatal(err)
	}
	if err := universe.WriteFile("laptop", "/d", []byte("z\na\nm\n")); err != nil {
		t.Fatal(err)
	}

	c, err := shadow.DialTCP(context.Background(), ln.Addr().String(), shadow.ClientConfig{
		User:     "tcpuser",
		Universe: universe,
		Host:     "laptop",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.ServerName() != "tcp-super" {
		t.Fatalf("server name = %q", c.ServerName())
	}

	job, err := c.Submit(context.Background(), "/run.job", []string{"/d"}, shadow.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := c.Wait(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	want := "a\nm\nz\n      3       3       6 d\n"
	if string(rec.Stdout) != want {
		t.Fatalf("stdout = %q, want %q", rec.Stdout, want)
	}

	// Deltas work over TCP too: edit a larger file and resubmit.
	big := bytes.Repeat([]byte("stable line of content for the tcp delta check\n"), 200)
	if err := universe.WriteFile("laptop", "/big", big); err != nil {
		t.Fatal(err)
	}
	if err := universe.WriteFile("laptop", "/big.job", []byte("wc big\n")); err != nil {
		t.Fatal(err)
	}
	jobA, err := c.Submit(context.Background(), "/big.job", []string{"/big"}, shadow.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(context.Background(), jobA); err != nil {
		t.Fatal(err)
	}
	if err := universe.WriteFile("laptop", "/big", append(big, []byte("tail\n")...)); err != nil {
		t.Fatal(err)
	}
	jobB, err := c.Submit(context.Background(), "/big.job", []string{"/big"}, shadow.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(context.Background(), jobB); err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics(); m.DeltaSends != 1 {
		t.Fatalf("delta sends over TCP = %d, want 1 (%+v)", m.DeltaSends, m)
	}
}

// TestTCPMultipleClients checks concurrent real-TCP sessions.
func TestTCPMultipleClients(t *testing.T) {
	srv := shadow.NewServer(shadow.DefaultServerConfig("tcp-super"))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- shadow.ServeTCP(srv, ln) }()
	defer func() {
		_ = ln.Close()
		srv.Close()
		<-serveDone
	}()

	const clients = 3
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			errs <- func() error {
				universe := shadow.NewUniverse("dom")
				host := "h" + string(rune('0'+i))
				universe.AddHost(host)
				if err := universe.WriteFile(host, "/j", []byte("echo ok\n")); err != nil {
					return err
				}
				c, err := shadow.DialTCP(context.Background(), ln.Addr().String(), shadow.ClientConfig{
					User: "u", Universe: universe, Host: host,
				})
				if err != nil {
					return err
				}
				defer c.Close()
				job, err := c.Submit(context.Background(), "/j", nil, shadow.SubmitOptions{})
				if err != nil {
					return err
				}
				_, err = c.Wait(context.Background(), job)
				return err
			}()
		}(i)
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// countingConn counts the Write calls on a connection and the Read calls
// that return data: the syscalls that move bytes, on a socket.
type countingConn struct {
	net.Conn
	writes, reads *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

// countingListener hands out countingConns sharing one pair of counters.
type countingListener struct {
	net.Listener
	writes, reads *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, writes: l.writes, reads: l.reads}, nil
}

// TestWarmCycleSyscalls counts the data-carrying syscalls of warm
// edit–submit–fetch cycles on an 8 KiB file over loopback TCP. The client
// writes three times a cycle — NOTIFY and SUBMIT together, FILE_DELTA,
// OUTPUT_ACK — the server about twice, and, since each end reads through a
// buffer, the eight frames of a cycle take at most three reads on either
// end.
func TestWarmCycleSyscalls(t *testing.T) {
	var serverWrites, serverReads, clientWrites, clientReads atomic.Int64
	srv := shadow.NewServer(shadow.DefaultServerConfig("tcp-super"))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- shadow.ServeTCP(srv, countingListener{Listener: ln, writes: &serverWrites, reads: &serverReads})
	}()
	defer func() {
		_ = ln.Close()
		srv.Close()
		<-serveDone
	}()

	universe := shadow.NewUniverse("tcp-dom")
	universe.AddHost("laptop")
	if err := universe.WriteFile("laptop", "/run.job", []byte("checksum data\n")); err != nil {
		t.Fatal(err)
	}
	// 128 lines of 64 bytes; each cycle rewrites 6 of them (about 5 %).
	lines := make([][]byte, 128)
	for i := range lines {
		lines[i] = []byte(fmt.Sprintf("%-63s\n", fmt.Sprintf("line %d of the syscall count", i)))
	}
	edit := func(cycle int) []byte {
		for k := 0; k < 6; k++ {
			i := (cycle*7 + k*19) % len(lines)
			lines[i] = []byte(fmt.Sprintf("%-63s\n", fmt.Sprintf("line %d, edit %d", i, cycle)))
		}
		return bytes.Join(lines, nil)
	}
	addr := ln.Addr().String()
	c, err := shadow.DialTCP(context.Background(), addr, shadow.ClientConfig{
		User:     "counted",
		Universe: universe,
		Host:     "laptop",
		Dial: func() (wire.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return wire.NewStreamConn(&countingConn{Conn: conn, writes: &clientWrites, reads: &clientReads}), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cycle := func(i int) {
		t.Helper()
		if err := universe.WriteFile("laptop", "/data", edit(i)); err != nil {
			t.Fatal(err)
		}
		job, err := c.Submit(context.Background(), "/run.job", []string{"/data"}, shadow.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(context.Background(), job); err != nil {
			t.Fatal(err)
		}
	}
	const warm, measured = 10, 200
	for i := 0; i < warm; i++ {
		cycle(i)
	}
	sw, sr, cw, cr := serverWrites.Load(), serverReads.Load(), clientWrites.Load(), clientReads.Load()
	for i := warm; i < warm+measured; i++ {
		cycle(i)
	}
	// The window opens and closes with an OUTPUT_ACK in flight, so it holds
	// one cycle's worth of them, give or take a read.
	per := func(n int64) float64 { return float64(n) / measured }
	clientW, clientR := per(clientWrites.Load()-cw), per(clientReads.Load()-cr)
	serverW, serverR := per(serverWrites.Load()-sw), per(serverReads.Load()-sr)
	t.Logf("per cycle: client %.2f writes / %.2f reads, server %.2f writes / %.2f reads", clientW, clientR, serverW, serverR)
	if m := c.Metrics(); m.DeltaSends < measured {
		t.Fatalf("%d delta sends in %d cycles: the cycles did not take the delta path", m.DeltaSends, measured)
	}
	if clientW != 3 {
		t.Errorf("client writes %.2f times a cycle, want 3", clientW)
	}
	if clientR > 3 || serverR > 3 {
		t.Errorf("reads per cycle: client %.2f, server %.2f; want at most 3 on each end", clientR, serverR)
	}
	// The server's writer sends PULL with SUBMIT_OK and FILE_ACK with
	// OUTPUT, about two writes a cycle; a writer that wrote each frame alone
	// would make it four. Under the race detector FILE_ACK often leaves
	// before OUTPUT is queued: 2.7 to 2.9 writes a cycle.
	maxServerW := 2.5
	if raceEnabled {
		maxServerW = 3.5
	}
	if serverW > maxServerW {
		t.Errorf("server writes %.2f times a cycle, want at most %.1f", serverW, maxServerW)
	}
}

// failingConn fails its failAt-th Write and closes itself. With deliver set
// the bytes reach the peer first, so only the report of the write is lost.
type failingConn struct {
	net.Conn
	failAt, writes int
	deliver        bool
}

func (c *failingConn) Write(p []byte) (int, error) {
	if c.writes++; c.writes != c.failAt {
		return c.Conn.Write(p)
	}
	if c.deliver {
		_, _ = c.Conn.Write(p)
	}
	_ = c.Conn.Close()
	return 0, net.ErrClosed
}

// TestFailedSubmissionWriteRunsJobOnce: when the one write that carries a
// submission's NOTIFY and SUBMIT fails — whether the bytes were lost or
// reached the server — the client reconnects and retries the SUBMIT under
// the same tag, and the job runs exactly once, on the committed content.
func TestFailedSubmissionWriteRunsJobOnce(t *testing.T) {
	for _, deliver := range []bool{false, true} {
		t.Run(fmt.Sprintf("delivered=%v", deliver), func(t *testing.T) {
			srv := shadow.NewServer(shadow.DefaultServerConfig("tcp-super"))
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			serveDone := make(chan error, 1)
			go func() { serveDone <- shadow.ServeTCP(srv, ln) }()
			defer func() {
				_ = ln.Close()
				srv.Close()
				<-serveDone
			}()

			universe := shadow.NewUniverse("tcp-dom")
			universe.AddHost("laptop")
			data := bytes.Repeat([]byte("the content the job must see\n"), 50)
			if err := universe.WriteFile("laptop", "/run.job", []byte("cat d\n")); err != nil {
				t.Fatal(err)
			}
			if err := universe.WriteFile("laptop", "/d", data); err != nil {
				t.Fatal(err)
			}
			dials := 0
			addr := ln.Addr().String()
			c, err := shadow.DialTCP(context.Background(), addr, shadow.ClientConfig{
				User:     "retried",
				Universe: universe,
				Host:     "laptop",
				Dial: func() (wire.Conn, error) {
					conn, err := net.Dial("tcp", addr)
					if err != nil {
						return nil, err
					}
					if dials++; dials == 1 {
						// Write 1 is HELLO, write 2 the submission.
						conn = &failingConn{Conn: conn, failAt: 2, deliver: deliver}
					}
					return wire.NewStreamConn(conn), nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			job, err := c.Submit(ctx, "/run.job", []string{"/d"}, shadow.SubmitOptions{})
			if err != nil {
				t.Fatal(err)
			}
			rec, err := c.Wait(ctx, job)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec.Stdout, data) {
				t.Fatalf("job saw %d bytes, want the %d committed", len(rec.Stdout), len(data))
			}
			if dials < 2 {
				t.Fatalf("%d dials: the failed write did not end the first session", dials)
			}
			if m := c.Metrics(); m.Retries == 0 {
				t.Fatalf("no retry recorded: %+v", m)
			}
			runs := 0
			for _, n := range srv.JobCounts() {
				runs += n
			}
			if runs != 1 {
				t.Fatalf("the server ran %d jobs, want 1 (%v)", runs, srv.JobCounts())
			}
		})
	}
}
