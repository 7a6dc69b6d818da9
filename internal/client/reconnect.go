package client

import (
	"context"
	"errors"
	"fmt"
	"time"

	"shadowedit/internal/wire"
)

// supervise owns the connection lifecycle: it runs the read loop, and when
// the connection dies either finishes the client (no Dial function, or
// deliberate Close) or re-establishes the session and carries on. It is the
// only goroutine that installs connections after Connect returns.
func (c *Client) supervise(conn wire.Conn) {
	defer close(c.superDone)
	for {
		c.readLoop(conn)
		_ = conn.Close()

		c.mu.Lock()
		cause := c.lastDrop
		c.conn = nil
		down := c.connDown
		c.connDown = make(chan struct{})
		c.connUp = make(chan struct{})
		closed := c.closed
		c.mu.Unlock()
		close(down)

		if closed {
			c.finish(nil)
			return
		}
		if cause == nil {
			cause = errors.New("connection closed")
		}
		if c.cfg.Dial == nil {
			c.finish(tagErr(ErrDisconnected,
				fmt.Errorf("client: connection lost: %w", cause)))
			return
		}
		next, err := c.reconnect(cause)
		if err != nil {
			c.mu.Lock()
			closed = c.closed
			c.mu.Unlock()
			if closed {
				c.finish(nil)
			} else {
				c.finish(err)
			}
			return
		}
		c.installConn(next)
		c.counters.AddReconnect()
		conn = next
		// A Close that ran while the redial was succeeding found no
		// connection to close and is now waiting for this goroutine: close
		// the new one ourselves, and the read loop ends at once. (Close marks
		// the client closed before it looks for a connection, so one of the
		// two always sees the other.)
		c.mu.Lock()
		closed = c.closed
		c.mu.Unlock()
		if closed {
			_ = next.Close()
		}
	}
}

// installConn publishes a live connection and wakes waiters.
func (c *Client) installConn(conn wire.Conn) {
	c.mu.Lock()
	c.conn = conn
	up := c.connUp
	c.mu.Unlock()
	select {
	case <-up:
	default:
		close(up)
	}
}

// reconnect re-establishes the session with exponential backoff: dial,
// handshake, resync the server's view of our file heads. The server holds
// undelivered output and re-pulls dangling inputs on re-attach, so nothing
// is lost across the gap.
func (c *Client) reconnect(cause error) (wire.Conn, error) {
	delay := c.retry.BaseDelay
	for attempt := 1; ; attempt++ {
		if err := c.lifeCtx.Err(); err != nil {
			return nil, ErrClosed
		}
		conn, err := c.dialOnce()
		if err == nil {
			return conn, nil
		}
		if errors.Is(err, ErrClosed) {
			return nil, ErrClosed
		}
		if attempt >= c.retry.MaxAttempts {
			return nil, tagErr(ErrRetriesExhausted,
				fmt.Errorf("client: reconnect failed after %d attempts (%v): %w",
					attempt, cause, err))
		}
		if err := c.sleep(c.jittered(delay)); err != nil {
			return nil, ErrClosed
		}
		delay = time.Duration(float64(delay) * c.retry.Multiplier)
		if delay > c.retry.MaxDelay {
			delay = c.retry.MaxDelay
		}
	}
}

// dialOnce makes one full session-establishment attempt.
func (c *Client) dialOnce() (wire.Conn, error) {
	conn, err := c.cfg.Dial()
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	if err := c.handshake(conn); err != nil {
		_ = conn.Close()
		return nil, err
	}
	if err := c.resync(conn); err != nil {
		_ = conn.Close()
		return nil, err
	}
	return conn, nil
}

// handshake sends HELLO and waits for HELLO_OK on a fresh connection.
func (c *Client) handshake(conn wire.Conn) error {
	hello := &wire.Hello{
		Protocol:   wire.ProtocolVersion,
		User:       c.cfg.User,
		Domain:     c.cfg.Universe.Domain(),
		ClientHost: c.cfg.Host,
	}
	if err := wire.Send(conn, hello); err != nil {
		return fmt.Errorf("client: hello: %w", err)
	}
	reply, err := wire.Recv(conn)
	if err != nil {
		return fmt.Errorf("client: handshake: %w", err)
	}
	switch m := reply.(type) {
	case *wire.HelloOK:
		c.mu.Lock()
		c.session = m.Session
		if c.tagBase == 0 {
			// First session id keys this client's idempotency-tag space.
			c.tagBase = m.Session << 20
		}
		c.mu.Unlock()
		if c.serverName == "" {
			c.serverName = m.ServerName
		}
		return nil
	case *wire.ErrorMsg:
		return fmt.Errorf("client: server refused session: %w", m)
	default:
		return fmt.Errorf("client: unexpected handshake reply %v", reply.Kind())
	}
}

// resync re-announces every known file head over a fresh connection, so the
// server learns about versions committed while we were disconnected (their
// NOTIFYs may have died with the old connection). Redundant notifies are
// harmless — the server pulls only what it is missing, on demand.
func (c *Client) resync(conn wire.Conn) error {
	for _, ref := range c.store.Files() {
		head, ok := c.store.Head(ref)
		if !ok {
			continue
		}
		n := &wire.Notify{
			File:    ref,
			Version: head.Number,
			Size:    int64(len(head.Content)),
			Sum:     head.Sum,
		}
		if err := wire.Send(conn, n); err != nil {
			return fmt.Errorf("client: resync notify: %w", err)
		}
		c.counters.AddControl(0)
	}
	return nil
}

// jittered randomizes d by ±Jitter.
func (c *Client) jittered(d time.Duration) time.Duration {
	c.mu.Lock()
	f := 1 + c.retry.Jitter*(2*c.rng.Float64()-1)
	c.mu.Unlock()
	j := time.Duration(float64(d) * f)
	if j <= 0 {
		j = d
	}
	return j
}

// sleep waits out a backoff delay, on the wall clock or — in simulations —
// by advancing the workstation's virtual clock, so backoff outlasts
// virtual-time flap windows. It returns early when the client closes.
func (c *Client) sleep(d time.Duration) error {
	if c.cfg.Sleep != nil {
		return c.cfg.Sleep(c.lifeCtx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-c.lifeCtx.Done():
		return context.Cause(c.lifeCtx)
	}
}
