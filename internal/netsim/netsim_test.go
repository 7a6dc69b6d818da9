package netsim

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// pairOn builds a network of two hosts joined by spec and returns an
// established connection (client end, server end).
func pairOn(t *testing.T, spec Spec) (*Conn, *Conn, *Host, *Host) {
	t.Helper()
	nw := New()
	a, b := nw.Host("client"), nw.Host("super")
	nw.Connect(a, b, spec)
	lst, err := b.Listen(7)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lst.Close() })

	type res struct {
		c   *Conn
		err error
	}
	acc := make(chan res, 1)
	go func() {
		c, err := lst.Accept()
		acc <- res{c: c, err: err}
	}()
	client, err := a.Dial("super", 7)
	if err != nil {
		t.Fatal(err)
	}
	r := <-acc
	if r.err != nil {
		t.Fatal(r.err)
	}
	return client, r.c, a, b
}

func TestTransmitTime(t *testing.T) {
	tests := []struct {
		name string
		spec Spec
		n    int
		want time.Duration
	}{
		{
			name: "cypress 1200 bytes/sec",
			spec: Spec{BitsPerSecond: 9600},
			n:    1200,
			want: time.Second,
		},
		{
			name: "overhead charged",
			spec: Spec{BitsPerSecond: 8000, OverheadBytes: 100},
			n:    900,
			want: time.Second,
		},
		{
			name: "zero payload still pays overhead",
			spec: Spec{BitsPerSecond: 8000, OverheadBytes: 40},
			n:    0,
			want: 40 * time.Millisecond,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.spec.TransmitTime(tt.n); got != tt.want {
				t.Fatalf("TransmitTime(%d) = %v, want %v", tt.n, got, tt.want)
			}
		})
	}
}

func TestRoundTripAdvancesVirtualTime(t *testing.T) {
	spec := Spec{BitsPerSecond: 9600, Latency: 100 * time.Millisecond}
	client, server, ch, _ := pairOn(t, spec)

	// After the handshake the client has paid one round trip.
	if now := ch.Now(); now < 2*spec.Latency {
		t.Fatalf("post-handshake client clock %v, want >= %v", now, 2*spec.Latency)
	}
	start := ch.Now()

	payload := make([]byte, 1200) // 1 second at 9600 bps
	done := make(chan error, 1)
	go func() {
		msg, err := server.Recv()
		if err != nil {
			done <- err
			return
		}
		done <- server.Send(msg[:10])
	}()
	if err := client.Send(payload); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	elapsed := ch.Now() - start
	// 1s transmit + 2×100ms latency + small reply transmit.
	if elapsed < 1200*time.Millisecond || elapsed > 1350*time.Millisecond {
		t.Fatalf("round trip virtual time %v, want ~1.2s", elapsed)
	}
}

func TestVirtualTimeScalesWithBandwidth(t *testing.T) {
	elapsedAt := func(spec Spec) time.Duration {
		client, server, ch, _ := pairOn(t, spec)
		start := ch.Now()
		go func() {
			msg, _ := server.Recv()
			_ = server.Send(msg[:1])
		}()
		if err := client.Send(make([]byte, 56000/8)); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Recv(); err != nil {
			t.Fatal(err)
		}
		return ch.Now() - start
	}
	slow := elapsedAt(Cypress)
	fast := elapsedAt(ARPANET)
	ratio := float64(slow) / float64(fast)
	// Bandwidth ratio is 5.83×; latency dampens it a little.
	if ratio < 3 || ratio > 6.5 {
		t.Fatalf("cypress/arpanet time ratio = %.2f, want ~5", ratio)
	}
}

func TestLinkSerializesSameDirection(t *testing.T) {
	// Two back-to-back sends must serialize: the second arrives after
	// twice the transmit time.
	spec := Spec{BitsPerSecond: 9600, Latency: 0}
	client, server, _, sh := pairOn(t, spec)

	if err := client.Send(make([]byte, 1200)); err != nil { // 1s
		t.Fatal(err)
	}
	if err := client.Send(make([]byte, 1200)); err != nil { // +1s
		t.Fatal(err)
	}
	if _, err := server.Recv(); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Recv(); err != nil {
		t.Fatal(err)
	}
	if now := sh.Now(); now < 2*time.Second {
		t.Fatalf("server clock after two 1s sends = %v, want >= 2s", now)
	}
}

func TestFullDuplexDirectionsIndependent(t *testing.T) {
	spec := Spec{BitsPerSecond: 9600, Latency: 0}
	client, server, ch, sh := pairOn(t, spec)
	base := ch.Now()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_ = client.Send(make([]byte, 1200))
	}()
	go func() {
		defer wg.Done()
		_ = server.Send(make([]byte, 1200))
	}()
	wg.Wait()
	if _, err := client.Recv(); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Recv(); err != nil {
		t.Fatal(err)
	}
	// Each direction pays ~1s; they must not sum to 2s on either clock.
	for name, h := range map[string]*Host{"client": ch, "server": sh} {
		if d := h.Now() - base; d > 1500*time.Millisecond {
			t.Errorf("%s clock advanced %v, want ~1s (directions must not serialize)", name, d)
		}
	}
}

func TestProcessAdvancesClock(t *testing.T) {
	nw := New()
	h := nw.Host("x")
	h.Process(3 * time.Second)
	if h.Now() != 3*time.Second {
		t.Fatalf("Now = %v, want 3s", h.Now())
	}
	h.Process(-time.Second)
	if h.Now() != 3*time.Second {
		t.Fatalf("negative Process moved the clock: %v", h.Now())
	}
}

func TestRecvAfterCloseDrainsThenEOF(t *testing.T) {
	client, server, _, _ := pairOn(t, LAN)
	if err := client.Send([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := client.Send([]byte("two")); err != nil {
		t.Fatal(err)
	}
	client.Close()

	for _, want := range []string{"one", "two"} {
		got, err := server.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if string(got) != want {
			t.Fatalf("Recv = %q, want %q", got, want)
		}
	}
	if _, err := server.Recv(); err != io.EOF {
		t.Fatalf("Recv after drain = %v, want io.EOF", err)
	}
	if err := server.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send to closed peer = %v, want ErrClosed", err)
	}
}

func TestDialErrors(t *testing.T) {
	nw := New()
	a := nw.Host("a")
	b := nw.Host("b")

	if _, err := a.Dial("missing", 1); !errors.Is(err, ErrNoRoute) {
		t.Errorf("dial unknown host = %v, want ErrNoRoute", err)
	}
	if _, err := a.Dial("b", 1); !errors.Is(err, ErrNoRoute) {
		t.Errorf("dial unlinked host = %v, want ErrNoRoute", err)
	}
	nw.Connect(a, b, LAN)
	if _, err := a.Dial("b", 1); !errors.Is(err, ErrRefused) {
		t.Errorf("dial closed port = %v, want ErrRefused", err)
	}
}

func TestListenPortConflict(t *testing.T) {
	nw := New()
	h := nw.Host("h")
	l, err := h.Listen(9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Listen(9); err == nil {
		t.Fatal("second Listen on same port succeeded")
	}
	l.Close()
	l2, err := h.Listen(9)
	if err != nil {
		t.Fatalf("Listen after Close: %v", err)
	}
	l2.Close()
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	nw := New()
	h := nw.Host("h")
	nw.Connect(h, nw.Host("other"), LAN)
	l, err := h.Listen(5)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	l.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Accept after Close = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Accept did not unblock on Close")
	}
}

func TestLinkStats(t *testing.T) {
	nw := New()
	a, b := nw.Host("a"), nw.Host("b")
	link := nw.Connect(a, b, LAN)
	lst, err := b.Listen(1)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		c, err := lst.Accept()
		if err != nil {
			return
		}
		for {
			if _, err := c.Recv(); err != nil {
				return
			}
		}
	}()
	c, err := a.Dial("b", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(make([]byte, 200)); err != nil {
		t.Fatal(err)
	}
	bytes, msgs := link.Stats()
	if bytes != 300 {
		t.Errorf("link bytes = %d, want 300 (control frames carry no payload)", bytes)
	}
	if msgs < 4 { // 2 data + 2 handshake
		t.Errorf("link messages = %d, want >= 4", msgs)
	}
}

func TestManyConnectionsConcurrently(t *testing.T) {
	nw := New()
	server := nw.Host("server")
	lst, err := server.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer lst.Close()

	go func() {
		for {
			c, err := lst.Accept()
			if err != nil {
				return
			}
			go func() {
				for {
					msg, err := c.Recv()
					if err != nil {
						return
					}
					if err := c.Send(msg); err != nil {
						return
					}
				}
			}()
		}
	}()

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		h := nw.Host(fmt.Sprintf("c%d", i))
		nw.Connect(h, server, LAN)
		wg.Add(1)
		go func(h *Host, i int) {
			defer wg.Done()
			c, err := h.Dial("server", 80)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for k := 0; k < 20; k++ {
				msg := []byte(fmt.Sprintf("m-%d-%d", i, k))
				if err := c.Send(msg); err != nil {
					errs <- err
					return
				}
				got, err := c.Recv()
				if err != nil {
					errs <- err
					return
				}
				if string(got) != string(msg) {
					errs <- fmt.Errorf("echo mismatch: %q != %q", got, msg)
					return
				}
			}
		}(h, i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestHostIdempotent(t *testing.T) {
	nw := New()
	if nw.Host("x") != nw.Host("x") {
		t.Fatal("Host(x) returned different hosts")
	}
}

func TestSendCopiesPayload(t *testing.T) {
	client, server, _, _ := pairOn(t, LAN)
	buf := []byte("hello")
	if err := client.Send(buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("Recv = %q, want %q (Send must copy)", got, "hello")
	}
}

func TestLinkOutageAndHeal(t *testing.T) {
	nw := New()
	a, b := nw.Host("a"), nw.Host("b")
	link := nw.Connect(a, b, LAN)
	lst, err := b.Listen(1)
	if err != nil {
		t.Fatal(err)
	}
	defer lst.Close()
	go func() {
		c, err := lst.Accept()
		if err != nil {
			return
		}
		for {
			msg, err := c.Recv()
			if err != nil {
				return
			}
			_ = c.Send(msg)
		}
	}()
	c, err := a.Dial("b", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send([]byte("before")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recv(); err != nil {
		t.Fatal(err)
	}

	link.SetDown(true)
	if !link.Down() {
		t.Fatal("Down() false after SetDown(true)")
	}
	if err := c.Send([]byte("during")); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("Send over failed line = %v, want ErrLinkDown", err)
	}
	// Dialing across the failed line also fails.
	if _, err := a.Dial("b", 1); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("Dial over failed line = %v, want ErrLinkDown", err)
	}

	link.SetDown(false)
	if err := c.Send([]byte("after")); err != nil {
		t.Fatalf("Send after heal: %v", err)
	}
	got, err := c.Recv()
	if err != nil || string(got) != "after" {
		t.Fatalf("echo after heal = %q, %v", got, err)
	}
}

func TestPropertyClockMonotoneUnderRandomTraffic(t *testing.T) {
	// Random message sizes and directions: every host's virtual clock
	// only moves forward, and a message's arrival never precedes the
	// send-time plus its own transmission+latency.
	nw := New()
	a, b := nw.Host("a"), nw.Host("b")
	spec := Spec{BitsPerSecond: 56000, Latency: 10 * time.Millisecond, OverheadBytes: 40}
	nw.Connect(a, b, spec)
	lst, err := b.Listen(1)
	if err != nil {
		t.Fatal(err)
	}
	defer lst.Close()

	rng := rand.New(rand.NewSource(123))
	type obs struct {
		before time.Duration
		size   int
	}
	srvDone := make(chan error, 1)
	go func() {
		c, err := lst.Accept()
		if err != nil {
			srvDone <- err
			return
		}
		var last time.Duration
		for {
			_, err := c.Recv()
			now := b.Now()
			if err != nil {
				srvDone <- nil
				return
			}
			if now < last {
				srvDone <- fmt.Errorf("server clock went backward: %v -> %v", last, now)
				return
			}
			last = now
		}
	}()

	c, err := a.Dial("b", 1)
	if err != nil {
		t.Fatal(err)
	}
	var prev time.Duration
	for i := 0; i < 300; i++ {
		size := rng.Intn(4096)
		before := a.Now()
		if rng.Intn(5) == 0 {
			a.Process(time.Duration(rng.Intn(50)) * time.Millisecond)
		}
		if err := c.Send(make([]byte, size)); err != nil {
			t.Fatal(err)
		}
		now := a.Now()
		if now < prev || now < before {
			t.Fatalf("client clock went backward at %d: %v -> %v", i, prev, now)
		}
		prev = now
		_ = obs{before: before, size: size}
	}
	c.Close()
	if err := <-srvDone; err != nil {
		t.Fatal(err)
	}
	// The server's final clock must cover at least the serialization
	// time of everything sent.
	if b.Now() <= 0 {
		t.Fatal("server clock never advanced")
	}
}

func TestMultiHopRouting(t *testing.T) {
	// workstation --Cypress--> gateway --ARPANET--> super: the paper's
	// capillary topology. Dial routes through the gateway; transfer time
	// is dominated by the slow first hop but both hops charge their own
	// serialization and latency (store and forward).
	nw := New()
	ws := nw.Host("ws")
	gw := nw.Host("gateway")
	super := nw.Host("super")
	cypress := Spec{BitsPerSecond: 9600, Latency: 50 * time.Millisecond}
	arpanet := Spec{BitsPerSecond: 56000, Latency: 20 * time.Millisecond}
	nw.Connect(ws, gw, cypress)
	nw.Connect(gw, super, arpanet)

	lst, err := super.Listen(1)
	if err != nil {
		t.Fatal(err)
	}
	defer lst.Close()
	go func() {
		c, err := lst.Accept()
		if err != nil {
			return
		}
		for {
			msg, err := c.Recv()
			if err != nil {
				return
			}
			if err := c.Send(msg[:1]); err != nil {
				return
			}
		}
	}()

	c, err := ws.Dial("super", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := ws.Now()
	payload := make([]byte, 1200) // 1s on Cypress, ~0.18s on ARPANET
	if err := c.Send(payload); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recv(); err != nil {
		t.Fatal(err)
	}
	elapsed := ws.Now() - start
	// One way out: 1s + 50ms + ~0.18s + 20ms ≈ 1.25s; reply is small:
	// ~2x latencies + small serialization ≈ 0.15s. Total ≈ 1.4s.
	if elapsed < 1300*time.Millisecond || elapsed > 1700*time.Millisecond {
		t.Fatalf("two-hop round trip = %v, want ~1.4s", elapsed)
	}
}

func TestPathFinding(t *testing.T) {
	nw := New()
	a, b, c := nw.Host("a"), nw.Host("b"), nw.Host("c")
	nw.Host("island")
	nw.Connect(a, b, LAN)
	nw.Connect(b, c, LAN)
	nw.Connect(a, c, LAN) // direct shortcut

	hops, err := nw.Path("a", "c")
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 1 {
		t.Fatalf("Path(a, c) = %d hops, want the 1-hop shortcut", len(hops))
	}
	if _, err := nw.Path("a", "island"); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("Path to island = %v, want ErrNoRoute", err)
	}
	if _, err := nw.Path("a", "a"); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("Path to self = %v, want ErrNoRoute", err)
	}
	if _, err := nw.Path("a", "ghost"); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("Path to unknown = %v, want ErrNoRoute", err)
	}
}

func TestMultiHopMidLinkOutage(t *testing.T) {
	nw := New()
	ws, gw, super := nw.Host("ws"), nw.Host("gw"), nw.Host("super")
	nw.Connect(ws, gw, LAN)
	backbone := nw.Connect(gw, super, LAN)
	lst, err := super.Listen(1)
	if err != nil {
		t.Fatal(err)
	}
	defer lst.Close()
	go func() {
		c, err := lst.Accept()
		if err != nil {
			return
		}
		_, _ = c.Recv()
	}()
	c, err := ws.Dial("super", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	backbone.SetDown(true)
	if err := c.Send([]byte("x")); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("send over failed backbone = %v, want ErrLinkDown", err)
	}
}

// Down reports whether the line is currently failed.
func (l *Link) Down() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.down
}
