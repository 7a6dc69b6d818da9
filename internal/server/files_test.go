package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shadowedit/internal/diff"
	"shadowedit/internal/naming"
	"shadowedit/internal/wire"
)

func flightRef(i int) wire.FileRef {
	return wire.FileRef{Domain: "d", FileID: string(rune('a' + i%26))}
}

func newFileTable() *fileTable {
	t := &fileTable{}
	t.init()
	return t
}

// fetchOf builds the pending fetch of want from session owner.
func fetchOf(i int, want, owner uint64) pendingFetch {
	return pendingFetch{ref: flightRef(i), want: want, owner: owner}
}

func TestFlightsBeginCoalesces(t *testing.T) {
	f := newFileTable()
	for _, step := range []struct {
		what        string
		begin       bool // a begin of want from owner, else an arrival of want
		want, owner uint64
		won         bool // begin: whether the caller issues the pull
		inFlight    int  // fetches in flight afterwards
	}{
		{"first begin wins", true, 3, 10, true, 1},
		{"same-version begin coalesces", true, 3, 11, false, 1},
		{"older-version begin coalesces behind a newer fetch", true, 2, 11, false, 1},
		{"newer-version begin supersedes the fetch in flight", true, 5, 11, true, 1},
		{"an arrival older than the want leaves the flight open", false, 4, 0, false, 1},
		{"the wanted arrival closes it", false, 5, 0, false, 0},
		{"begin after the arrival wins again", true, 3, 12, true, 1},
	} {
		if step.begin {
			if _, won := f.begin(1, fetchOf(0, step.want, step.owner), false, nil); won != step.won {
				t.Fatalf("%s: begin reported %v", step.what, won)
			}
		} else {
			f.arrive(1, step.want, nil, nil)
		}
		if fs, _ := f.fetches(); len(fs) != step.inFlight {
			t.Fatalf("%s: %d fetches in flight, want %d", step.what, len(fs), step.inFlight)
		}
	}
}

func TestFlightsForceReplaces(t *testing.T) {
	f := newFileTable()
	if _, won := f.begin(2, fetchOf(1, 9, 1), false, nil); !won {
		t.Fatal("begin should win")
	}
	// A forced begin re-homes the fetch at a lower version (the full-repull
	// path).
	if _, won := f.begin(2, fetchOf(1, 1, 2), true, nil); !won {
		t.Fatal("a forced begin should win")
	}
	f.arrive(2, 1, nil, nil)
	if fs, _ := f.fetches(); len(fs) != 0 {
		t.Fatalf("%d fetches in flight, want 0: force should have replaced want", len(fs))
	}
}

// TestFlightsConcurrentSingleWinner races many sessions into begin for the
// same file version: exactly one may be told to issue the pull.
func TestFlightsConcurrentSingleWinner(t *testing.T) {
	f := newFileTable()
	for round := 0; round < 64; round++ {
		id := naming.ShadowID(round + 1)
		var winners atomic.Int32
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if _, won := f.begin(id, fetchOf(round, 1, uint64(g)), false, nil); won {
					winners.Add(1)
				}
			}(g)
		}
		wg.Wait()
		if winners.Load() != 1 {
			t.Fatalf("round %d: %d winners, want exactly 1", round, winners.Load())
		}
	}
}

func TestFlightsReleaseOwner(t *testing.T) {
	f := newFileTable()
	for i := 0; i < 10; i++ {
		if _, won := f.begin(naming.ShadowID(i+1), fetchOf(i, uint64(i+1), uint64(1+i%2)), false, nil); !won {
			t.Fatalf("begin %d should win", i)
		}
	}
	dead := &session{id: 1}
	released, _, _ := f.dropSession(dead)
	if len(released) != 5 {
		t.Fatalf("dropSession returned %d fetches, want 5", len(released))
	}
	for _, p := range released {
		if p.want == 0 || p.ref.FileID == "" || p.owner != 1 {
			t.Fatalf("released fetch incomplete: %+v", p)
		}
	}
	if fs, _ := f.fetches(); len(fs) != 5 {
		t.Fatalf("%d fetches in flight after the release, want 5", len(fs))
	}
	if again, _, _ := f.dropSession(dead); len(again) != 0 {
		t.Fatalf("second dropSession returned %d fetches, want 0", len(again))
	}
}

// fileTableBusy says what the file table still holds when the server should
// be idle, or "" when every record is idle — no flight (the open pull with
// it), no chunk assembly, no waiting job, no parked peer request, no owed
// acknowledgement — and no more forwardable deltas are kept than files are
// cached. Parked requests no flight covers are counted apart: nothing would
// ever answer them.
func fileTableBusy(s *Server) string {
	var flights, spans, asms, jobs, peers, uncovered, acks, deltas int
	for i := range s.files.shards {
		sh := &s.files.shards[i]
		sh.mu.Lock()
		for _, r := range sh.m {
			if r.fetching {
				flights++
				if r.flight.span != nil {
					spans++
				}
			}
			if r.asm != nil {
				asms++
			}
			jobs += len(r.jobs)
			peers += len(r.peers)
			for _, w := range r.peers {
				if !r.fetching || r.flight.want < w.want {
					uncovered++
				}
			}
			acks += len(r.acks)
			if r.delta != nil {
				deltas++
			}
		}
		sh.mu.Unlock()
	}
	if cached := s.cache.Len(); flights+asms+jobs+peers+acks != 0 || deltas > cached {
		return fmt.Sprintf("file table: %d flights (%d open pull spans), %d assemblies, %d waiting jobs, %d parked peer requests (%d with no covering flight), %d owed acks, %d deltas for %d cached files",
			flights, spans, asms, jobs, peers, uncovered, acks, deltas, cached)
	}
	return ""
}

// TestPeerParkRacesOwnerDeathAndArrival races PEER_NOTIFY parking against
// the two things that end the fetch it parks on: the death of the client
// session that owns the fetch (nothing re-homes it, so a parked request must
// be declined) and the fetch's answer (a parked request is served from it).
// Every request gets exactly one answer, and at drain no record holds a
// parked request — in particular none without a flight to cover it.
func TestPeerParkRacesOwnerDeathAndArrival(t *testing.T) {
	const rounds = 100
	r := newRig(t, Config{})
	joinTestCluster(r.srv)
	peer := r.dialSecond(t)
	helloOn(t, peer)
	sendOn(t, peer, &wire.PeerHello{Instance: "other"})
	answers := make(chan wire.Message, rounds)
	go func() {
		defer close(answers)
		for {
			m, err := wire.Recv(peer)
			if err != nil {
				return
			}
			answers <- m
		}
	}()

	content := []byte("parked\n")
	for i, n := 0, 0; i < rounds; n++ {
		ref := wire.FileRef{Domain: "d", FileID: fmt.Sprintf("ws:/u/park%d.dat", n)}
		if !r.srv.ownsFile(ref) {
			continue // the server pulls only the files it owns
		}
		owner := r.dialSecond(t)
		sendOn(t, owner, &wire.Hello{Protocol: wire.ProtocolVersion, User: "u", Domain: "d", ClientHost: "ws"})
		if m := recvWithin(t, owner, 5*time.Second); m.Kind() != wire.KindHelloOK {
			t.Fatalf("hello reply = %#v", m)
		}
		sendOn(t, owner, &wire.Notify{File: ref, Version: 1, Size: int64(len(content)), Sum: 1})
		if m := recvWithin(t, owner, 5*time.Second); m.Kind() != wire.KindPull {
			t.Fatalf("notify reply = %v, want eager pull", m.Kind())
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				_ = owner.Close()
			} else {
				_ = wire.Send(owner, &wire.FileFull{File: ref, Version: 1, Content: content, Sum: diff.Checksum(content)})
			}
		}()
		sendOn(t, peer, &wire.PeerNotify{File: ref, WantVersion: 1})
		wg.Wait()
		i++
	}

	got := make(map[string]int)
	var served int
	for n := 0; n < rounds; n++ {
		select {
		case m := <-answers:
			switch a := m.(type) {
			case *wire.PeerDelta:
				got[a.File.FileID]++
			case *wire.PeerChunk:
				got[a.File.FileID]++
				served++
			default:
				t.Fatalf("peer got %#v, want an answer to its request", m)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d peer requests answered; the rest are parked for good", n, rounds)
		}
	}
	select {
	case m := <-answers:
		t.Fatalf("an answer beyond one per request: %#v", m)
	case <-time.After(50 * time.Millisecond):
	}
	for file, n := range got {
		if n != 1 {
			t.Fatalf("%s answered %d times", file, n)
		}
	}
	if served != rounds/2 {
		t.Fatalf("%d requests served, want the %d whose fetch was answered", served, rounds/2)
	}
	assertFilesIdle(t, r.srv)
}

// assertFilesIdle waits for the file table to go idle (fileTableBusy).
func assertFilesIdle(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for why := fileTableBusy(s); why != ""; why = fileTableBusy(s) {
		if time.Now().After(deadline) {
			t.Fatal(why)
		}
		time.Sleep(time.Millisecond)
	}
}

// keptDelta returns the forwardable delta the table keeps for id, if any.
func keptDelta(s *Server, id naming.ShadowID) *storedDelta {
	sh, r := s.files.lock(id)
	defer sh.unlock(id, r)
	return r.delta
}
