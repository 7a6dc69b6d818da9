package server

import (
	"sync"
	"sync/atomic"
)

// fileBuf is one file version's bytes — assembled from chunks, built by a
// delta, or received whole — on loan to whoever still reads them: the arrival
// path that produced them, then every job they were fed to. The cache keeps
// chunks, never this buffer, so once the last job holding it has run it goes
// back to the server's free list and the next arrival is built in it: a warm
// cycle costs no file-sized allocation at the server.
type fileBuf struct {
	b    []byte
	refs atomic.Int32
	home *bufPool
}

// bufPool is a server's free list of file buffers: the few most recently
// released, whatever their sizes (a borrower that needs more grows its own).
// A list of its own rather than a sync.Pool, which the collector empties:
// with a live heap of about a megabyte that is every few cycles on large
// files, and what the process retains would wobble by a buffer or two between
// any two measurements. Both bounds are constants, not knobs; together they
// cap what an idle server holds here at maxFreeBufs × maxFreeBufCap.
type bufPool struct {
	mu   sync.Mutex
	free []*fileBuf
}

const (
	maxFreeBufs   = 8
	maxFreeBufCap = 4 << 20 // a larger buffer is left to the collector
)

// poisonFileBufs makes release overwrite what it recycles, so a reader that
// kept a buffer past its release fails loudly; the package's tests turn it on.
var poisonFileBufs bool

// borrow hands out a buffer — b empty, its capacity whatever the last
// borrower left — with one reference, the caller's.
func (p *bufPool) borrow() *fileBuf {
	p.mu.Lock()
	var fb *fileBuf
	if n := len(p.free); n > 0 {
		fb, p.free[n-1] = p.free[n-1], nil
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if fb == nil {
		fb = &fileBuf{home: p}
	}
	fb.refs.Store(1)
	return fb
}

// owned wraps bytes the caller owns (a decoded message's content, a fresh
// assembly); they join the free list when the last reader lets go.
func (p *bufPool) owned(b []byte) *fileBuf {
	fb := &fileBuf{b: b, home: p}
	fb.refs.Store(1)
	return fb
}

func (fb *fileBuf) retain() *fileBuf {
	fb.refs.Add(1)
	return fb
}

func (fb *fileBuf) release() {
	if fb.refs.Add(-1) != 0 {
		return
	}
	if poisonFileBufs {
		b := fb.b[:cap(fb.b)]
		for i := range b {
			b[i] = 0xDB
		}
	}
	fb.b = fb.b[:0]
	p := fb.home
	p.mu.Lock()
	if len(p.free) < maxFreeBufs && cap(fb.b) <= maxFreeBufCap {
		p.free = append(p.free, fb)
	}
	p.mu.Unlock()
}
