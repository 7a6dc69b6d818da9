package netsim

import (
	"errors"
	"io"
	"sync"
	"time"
)

// Link is one point-to-point line. Each direction serializes its own
// transmissions (full duplex): a message cannot begin transmitting until the
// previous message on that direction has finished.
type Link struct {
	spec Spec

	mu        sync.Mutex
	busyUntil [2]time.Duration // per direction
	bytes     [2]int64
	messages  [2]int64
	down      bool
	faults    *faultState // nil unless SetFaults installed an active spec
}

// Spec returns the link's characteristics.
func (l *Link) Spec() Spec { return l.spec }

// ErrLinkDown reports a transmission attempt over a failed line.
var ErrLinkDown = errors.New("netsim: link down")

// SetDown fails or heals the line. While down, every Send over the link
// returns ErrLinkDown — modeling a long-haul line outage. Connections are
// not torn down: when the line heals, existing connections work again (the
// transport is reliable; only the line below it failed).
func (l *Link) SetDown(down bool) {
	l.mu.Lock()
	l.down = down
	l.mu.Unlock()
}

// Down reports whether the line is currently failed.
func (l *Link) Down() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.down
}

// transmit schedules a message of n bytes in the given direction starting no
// earlier than now, returning its virtual arrival time at the far end.
func (l *Link) transmit(dir int, now time.Duration, n int) (time.Duration, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down {
		return 0, ErrLinkDown
	}
	var extra time.Duration
	var drop bool
	if l.faults != nil {
		var err error
		extra, drop, err = l.faults.inject(now)
		if err != nil {
			return 0, err
		}
	}
	start := now
	if l.busyUntil[dir] > start {
		start = l.busyUntil[dir]
	}
	done := start + l.spec.TransmitTime(n)
	l.busyUntil[dir] = done
	l.bytes[dir] += int64(n)
	l.messages[dir]++
	if drop {
		// The frame occupied the line and was lost at the far end.
		return 0, ErrFrameDropped
	}
	return done + l.spec.Latency + extra, nil
}

// Stats reports total payload bytes and messages carried, summed over both
// directions.
func (l *Link) Stats() (bytes, messages int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes[0] + l.bytes[1], l.messages[0] + l.messages[1]
}

// message is one simulated datagram with its virtual arrival time.
type message struct {
	payload []byte
	arrival time.Duration
	control bool // handshake marker, not delivered to Recv
}

// Hop is one step of a multi-hop route: a link and the direction of travel
// on it.
type Hop struct {
	Link *Link
	Dir  int
}

// Conn is one end of a simulated reliable message connection, possibly
// spanning several links (store-and-forward at each intermediate hop).
//
// Send and Recv move whole messages (the shadow protocol is message
// oriented); the wire package adapts this to its frame codec. Virtual time
// semantics: Send stamps the message using the sender's clock and every
// link along the path; Recv advances the receiver's clock to the arrival
// time.
type Conn struct {
	local  *Host
	remote *Host
	path   []Hop

	in  chan message
	out chan message

	closeOnce sync.Once
	closeCh   chan struct{}
	peer      *Conn
}

// connBuffer is the per-direction in-flight message capacity. The simulated
// transport never drops; senders block when far ahead of the receiver.
const connBuffer = 256

// newConnPath wires two connection halves together over a link path.
func newConnPath(a, b *Host, path []Hop) (*Conn, *Conn) {
	reverse := make([]Hop, len(path))
	for i, hop := range path {
		reverse[len(path)-1-i] = Hop{Link: hop.Link, Dir: 1 - hop.Dir}
	}
	ab := make(chan message, connBuffer)
	ba := make(chan message, connBuffer)
	ca := &Conn{local: a, remote: b, path: path, in: ba, out: ab, closeCh: make(chan struct{})}
	cb := &Conn{local: b, remote: a, path: reverse, in: ab, out: ba, closeCh: make(chan struct{})}
	ca.peer = cb
	cb.peer = ca
	return ca, cb
}

// Now returns the local host's current virtual time.
func (c *Conn) Now() time.Duration { return c.local.Now() }

// Send transmits payload to the peer, consuming virtual transmission time on
// the link. The payload is copied; the caller may reuse it.
func (c *Conn) Send(payload []byte) error {
	return c.sendFrom(payload, c.local.Now(), false)
}

// SendScheduled transmits payload as if handed to the line at virtual time
// start. An asynchronous writer uses it to preserve the virtual moment a
// message was queued: the local clock may have advanced (the receive side
// runs concurrently) by the time the writer drains the queue. Per-direction
// line serialization makes an early start safe — transmission begins no
// earlier than the previous message on the direction finished.
func (c *Conn) SendScheduled(payload []byte, start time.Duration) error {
	return c.sendFrom(payload, start, false)
}

func (c *Conn) send(payload []byte, control bool) error {
	return c.sendFrom(payload, c.local.Now(), control)
}

func (c *Conn) sendFrom(payload []byte, start time.Duration, control bool) error {
	select {
	case <-c.closeCh:
		return ErrClosed
	case <-c.peer.closeCh:
		return ErrClosed
	default:
	}
	// Store and forward: each hop serializes the message on its own
	// line, starting no earlier than the previous hop delivered it.
	arrival := start
	for _, hop := range c.path {
		var err error
		arrival, err = hop.Link.transmit(hop.Dir, arrival, len(payload))
		if err != nil {
			if errors.Is(err, ErrFrameDropped) {
				// The stream lost a frame it cannot recover: both ends
				// see the connection die, like a TCP reset. Recovery is
				// the session layer's reconnect path.
				c.reset()
				return ErrReset
			}
			return err
		}
	}
	msg := message{
		payload: append([]byte(nil), payload...),
		arrival: arrival,
		control: control,
	}
	select {
	case c.out <- msg:
		return nil
	case <-c.peer.closeCh:
		return ErrClosed
	}
}

// Recv blocks for the next message, advances the local virtual clock to its
// arrival time and returns the payload. It returns io.EOF once the peer has
// closed and all in-flight messages are drained.
func (c *Conn) Recv() ([]byte, error) {
	for {
		m, err := c.recvRaw()
		if err != nil {
			return nil, err
		}
		if m.control {
			continue
		}
		return m.payload, nil
	}
}

// recvControl receives exactly one message, control or not (used by the
// handshake).
func (c *Conn) recvControl() (message, error) {
	return c.recvRaw()
}

func (c *Conn) recvRaw() (message, error) {
	select {
	case m := <-c.in:
		c.local.advanceTo(m.arrival)
		return m, nil
	default:
	}
	select {
	case m := <-c.in:
		c.local.advanceTo(m.arrival)
		return m, nil
	case <-c.closeCh:
		return message{}, ErrClosed
	case <-c.peer.closeCh:
		// Drain what was already in flight before reporting EOF.
		select {
		case m := <-c.in:
			c.local.advanceTo(m.arrival)
			return m, nil
		default:
			return message{}, io.EOF
		}
	}
}

// Close shuts down this end. The peer's pending Recv calls drain in-flight
// messages, then report io.EOF.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.closeCh) })
	return nil
}

// reset tears down both ends at once: a fault consumed a frame, so neither
// side can trust the stream any longer.
func (c *Conn) reset() {
	c.closeOnce.Do(func() { close(c.closeCh) })
	c.peer.closeOnce.Do(func() { close(c.peer.closeCh) })
}
