package wire_test

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"testing"

	"shadowedit/internal/netsim"
	"shadowedit/internal/wire"
)

// transports are the two implementations of wire.Conn the protocol runs
// over, each as a connected pair.
var transports = []struct {
	name string
	pair func(t *testing.T) (a, b wire.Conn)
}{
	{"stream", func(t *testing.T) (wire.Conn, wire.Conn) {
		c1, c2 := net.Pipe()
		a, b := wire.NewStreamConn(c1), wire.NewStreamConn(c2)
		t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
		return a, b
	}},
	{"netsim", func(t *testing.T) (wire.Conn, wire.Conn) {
		nw := netsim.New()
		nw.Connect(nw.Host("a"), nw.Host("b"), netsim.LAN)
		lst, err := nw.Host("b").Listen(1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = lst.Close() })
		accepted := make(chan *netsim.Conn, 1)
		go func() {
			c, _ := lst.Accept()
			accepted <- c
		}()
		a, err := nw.Host("a").Dial("b", 1)
		if err != nil {
			t.Fatal(err)
		}
		b := <-accepted
		t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
		return a, b
	}},
}

// contractFrame is frame i of a contract run: sizes from a few bytes to past
// the stream's scratch bound, so receive buffers grow and shrink on the way.
func contractFrame(i int) []byte {
	n := []int{10, 300, 5000, 70 << 10, 40}[i%5]
	b := make([]byte, n)
	for j := range b {
		b[j] = byte(i*7 + j)
	}
	return b
}

const contractFrames = 60

// TestTransportContract checks the contract wire.Conn states, on every
// transport: Send is finished with the payload when it returns, a slice
// from Recv stays intact until the next Recv, and an oversized frame is
// refused with ErrFrameTooLarge.
func TestTransportContract(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name+"/send-is-done-with-the-payload", func(t *testing.T) {
			a, b := tr.pair(t)
			errc := make(chan error, 1)
			go func() {
				var payload []byte // one buffer for every frame, overwritten after each Send
				for i := 0; i < contractFrames; i++ {
					payload = append(payload[:0], contractFrame(i)...)
					if err := a.Send(payload); err != nil {
						errc <- err
						return
					}
					for j := range payload {
						payload[j] = 0xEE
					}
				}
				errc <- nil
			}()
			for i := 0; i < contractFrames; i++ {
				got, err := b.Recv()
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if !bytes.Equal(got, contractFrame(i)) {
					t.Fatalf("frame %d: the receiver saw the sender's later writes to the payload", i)
				}
			}
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
		})

		t.Run(tr.name+"/recv-frame-lasts-until-the-next-recv", func(t *testing.T) {
			a, b := tr.pair(t)
			errc := make(chan error, 1)
			go func() {
				for i := 0; i < contractFrames; i++ {
					if err := a.Send(contractFrame(i)); err != nil {
						errc <- err
						return
					}
				}
				errc <- nil
			}()
			var prev []byte
			for i := 0; i < contractFrames; i++ {
				// The sender runs on meanwhile; the frame lent last time
				// must not have moved under the caller.
				runtime.Gosched()
				if prev != nil && !bytes.Equal(prev, contractFrame(i-1)) {
					t.Fatalf("frame %d changed before the next Recv", i-1)
				}
				got, err := b.Recv()
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if !bytes.Equal(got, contractFrame(i)) {
					t.Fatalf("frame %d: %d bytes, want %d (or contents differ)", i, len(got), len(contractFrame(i)))
				}
				prev = got
			}
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
		})

		t.Run(tr.name+"/oversized-frame-is-refused", func(t *testing.T) {
			a, b := tr.pair(t)
			recvc := make(chan error, 1)
			go func() {
				_, _, err := wire.RecvTraced(b)
				recvc <- err
			}()
			err := a.Send(make([]byte, wire.MaxFrame+1))
			if err == nil {
				err = <-recvc // the transport carried it: the receiving end must refuse it
			}
			if !errors.Is(err, wire.ErrFrameTooLarge) {
				t.Fatalf("err %v, want ErrFrameTooLarge", err)
			}
		})
	}
}
