package client

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"shadowedit/internal/chunk"
	"shadowedit/internal/core"
	"shadowedit/internal/diff"
	"shadowedit/internal/naming"
	"shadowedit/internal/vcs"
	"shadowedit/internal/wire"
)

// A recycle test file is rcLines lines of rcWidth bytes. Version n stamps n
// into a quarter of them, starting at a line that moves with n, so any two
// versions differ in about half their lines, every length stays the same (the
// store's spare always fits the next read), and a delta between them is
// smaller than the file.
const rcLines, rcWidth = 2048, 32

var rcTemplate = func() []byte {
	b := make([]byte, 0, rcLines*rcWidth)
	for i := 0; i < rcLines; i++ {
		b = fmt.Appendf(b, "%08d line %06d of the file...\n", 0, i)
	}
	return b
}()

func rcVersion(n uint64) []byte {
	b := slices.Clone(rcTemplate)
	lo := int(n*613) % rcLines
	for k := 0; k < rcLines/4; k++ {
		line := b[(lo+k)%rcLines*rcWidth:]
		for d, x := 7, n; d >= 0; d, x = d-1, x/10 {
			line[d] = '0' + byte(x%10)
		}
	}
	return b
}

// TestBorrowedAnswersSurviveRecycling: two sessions of one workstation share
// a version store, as a ClusterClient's members do. An editor commits one
// version after another, and the acknowledgements arriving on one session
// prune the old ones, so every retired buffer is read into again at once,
// while the other session answers pulls: with deltas and full copies (classic),
// then with manifests, inline chunks and chunk data (chunked). The editor
// commits through the answering session, whose server skips the NOTIFYs.
// An answer that shared bytes a prune recycled under it would carry another
// version's bytes: every delta must apply to the base the server named and
// pass CheckTarget, every full copy must match its sum, every chunk its
// address.
func TestBorrowedAnswersSurviveRecycling(t *testing.T) {
	store := vcs.NewStore(0)
	universe := naming.NewUniverse("dom")
	universe.AddHost("ws")
	classic, fsA := newPairConfig(t, Config{User: "u", Universe: universe, Host: "ws", Store: store})
	chunked, fsB := newPairConfig(t, Config{User: "u", Universe: universe, Host: "ws", Store: store, Chunked: true})
	ref, err := classic.refFor("/f")
	if err != nil {
		t.Fatal(err)
	}
	next := uint64(0)
	for _, phase := range []struct {
		name        string
		editor      *Client
		answer, ack *fakeServer
		check       func(*fakeServer, wire.FileRef, uint64, uint64) (int, error)
	}{
		{"classic", classic, fsA, fsB, checkClassicAnswer},
		{"chunked", chunked, fsB, fsA, checkChunkedAnswer},
	} {
		// stop ends the answering loop, and the answering loop's failure
		// the editor, whose NOTIFYs only that loop drains.
		var stop atomic.Bool
		var wg sync.WaitGroup
		var answers int
		var answerErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer stop.Store(true)
			for !stop.Load() && answerErr == nil {
				head, ok := store.HeadShared(ref)
				if !ok {
					continue
				}
				var n int
				n, answerErr = phase.check(phase.answer, ref, store.Acked(ref), head.Number)
				answers += n
			}
		}()
		var editErr error
		for i := 0; i < 1000 && editErr == nil && !stop.Load(); i++ {
			next++
			if editErr = universe.WriteFile("ws", "/f", rcVersion(next)); editErr != nil {
				break
			}
			var res NotifyResult
			if res, editErr = phase.editor.CommitAndNotify("/f"); editErr == nil && res.Version != next {
				editErr = fmt.Errorf("committed v%d, want v%d", res.Version, next)
			}
			if next > 1 {
				editErr = wire.Send(phase.ack.conn, &wire.FileAck{File: ref, Version: next - 1})
			}
		}
		stop.Store(true)
		wg.Wait()
		if editErr != nil {
			t.Fatalf("%s: editor: %v", phase.name, editErr)
		}
		if answerErr != nil {
			t.Fatalf("%s: %v", phase.name, answerErr)
		}
		if answers == 0 {
			t.Fatalf("%s: no pull was answered", phase.name)
		}
		t.Logf("%s: %d answers checked", phase.name, answers)
	}
}

// recvReply receives the next message on fs that is not a NOTIFY (the
// editor's commits announce themselves on the answering session).
func recvReply(fs *fakeServer) (wire.Message, error) {
	for {
		m, err := wire.Recv(fs.conn)
		if _, notify := m.(*wire.Notify); err != nil || !notify {
			return m, err
		}
	}
}

// checkClassicAnswer pulls (have → want) and checks the delta or full copy
// that answers it.
func checkClassicAnswer(fs *fakeServer, ref wire.FileRef, have, want uint64) (int, error) {
	if err := wire.Send(fs.conn, &wire.Pull{File: ref, HaveVersion: have, WantVersion: want}); err != nil {
		return 0, err
	}
	reply, err := recvReply(fs)
	if err != nil {
		return 0, err
	}
	switch r := reply.(type) {
	case *wire.FileDelta:
		d, err := core.DecodeDelta(r)
		if err != nil {
			return 0, err
		}
		out, err := d.Apply(rcVersion(r.BaseVersion))
		if err == nil {
			err = d.CheckTarget(out)
		}
		if err != nil || !bytes.Equal(out, rcVersion(r.Version)) {
			return 0, fmt.Errorf("delta v%d→v%d does not rebuild its target: %v", r.BaseVersion, r.Version, err)
		}
	case *wire.FileFull:
		if r.Compressed || diff.Checksum(r.Content) != r.Sum || !bytes.Equal(r.Content, rcVersion(r.Version)) {
			return 0, fmt.Errorf("full copy of v%d is not that version", r.Version)
		}
	default:
		return 0, fmt.Errorf("pull answered with %T", reply)
	}
	return 1, nil
}

// checkChunkedAnswer pulls (have → want), checks the manifest and its inline
// chunks, then requests every chunk and checks each one that comes back —
// again and again until the answer comes back short: the version's own
// chunks went with it, so the last requests raced its prune.
func checkChunkedAnswer(fs *fakeServer, ref wire.FileRef, have, want uint64) (int, error) {
	if err := wire.Send(fs.conn, &wire.Pull{File: ref, HaveVersion: have, WantVersion: want}); err != nil {
		return 0, err
	}
	reply, err := recvReply(fs)
	if err != nil {
		return 0, err
	}
	fm, ok := reply.(*wire.FileManifest)
	if !ok {
		return 0, fmt.Errorf("chunked pull answered with %T", reply)
	}
	content := rcVersion(fm.Version)
	split := chunk.Split(content, chunk.DefaultParams)
	if fm.Sum != diff.Checksum(content) || len(fm.Chunks) != len(split) {
		return 0, fmt.Errorf("manifest of v%d is not that version's", fm.Version)
	}
	hashes := make([][len(chunk.Hash{})]byte, len(split))
	bytesOf := make(map[chunk.Hash][]byte, len(split)) // compared, not hashed: a quicker loop races more
	off := 0
	for i, r := range split {
		if fm.Chunks[i] != (wire.ChunkRef{Hash: r.Hash, Len: r.Len}) {
			return 0, fmt.Errorf("manifest of v%d: chunk %d is not that version's", fm.Version, i)
		}
		hashes[i] = r.Hash
		bytesOf[r.Hash] = content[off : off+int(r.Len)]
		off += int(r.Len)
	}
	for _, in := range fm.Inline {
		if !bytes.Equal(in.Data, bytesOf[fm.Chunks[in.Index].Hash]) {
			return 0, fmt.Errorf("manifest of v%d: inline chunk %d does not match its address", fm.Version, in.Index)
		}
	}
	for n := 1; ; n++ {
		if err := wire.Send(fs.conn, &wire.ChunkReq{File: ref, Version: fm.Version, Hashes: hashes}); err != nil {
			return n, err
		}
		if reply, err = recvReply(fs); err != nil {
			return n, err
		}
		cd, ok := reply.(*wire.ChunkData)
		if !ok {
			return n, fmt.Errorf("chunk request answered with %T", reply)
		}
		for _, b := range cd.Chunks {
			if !bytes.Equal(b.Data, bytesOf[b.Hash]) {
				return n, fmt.Errorf("chunk data for v%d does not match its address", cd.Version)
			}
		}
		if len(cd.Chunks) < len(hashes) || n == 64 {
			return n + 1, nil
		}
	}
}
