package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"shadowedit/internal/cache"
	"shadowedit/internal/chunk"
	"shadowedit/internal/cluster"
	"shadowedit/internal/core"
	"shadowedit/internal/diff"
	"shadowedit/internal/jobs"
	"shadowedit/internal/naming"
	"shadowedit/internal/vcs"
	"shadowedit/internal/wire"
)

// The layer replay. Single-threaded and with no sockets, it regenerates the
// first cycles of session 0 from the seed and times each public layer call
// the live path makes for that cycle, one span per layer per cycle, all
// children of a span replay.cycle. It prices the layers in isolation; what
// the live cycle costs beyond their sum (syscalls, scheduling, the session
// state machines between the layers) is the budget's unattributed share.
//
// replaySpans lists the layer spans in the order a cycle reaches them.
var replaySpans = []string{
	"vcs.commit", "diff.compute", "diff.encode", "wire.marshal", "wire.unmarshal",
	"cache.get", "diff.apply", "chunk.split", "cache.put", "jobs.execute",
	"core.output_transfer", "core.apply_output", "cluster.owner",
}

// ownerLookupsPerCycle is how many ring lookups the replay times per cycle:
// the client routes the data file and the script, and the server checks
// ownership on the notify and on gathering the job's input.
const ownerLookupsPerCycle = 4

type replayResult struct {
	cycles int
	// ns holds, per span name, the time that layer took in each cycle.
	ns map[string][]float64
	// splitInsidePut says chunk.split is also part of cache.put's time (the
	// classic path, where the cache splits what it stores), so cache.put's
	// budget share is its self time.
	splitInsidePut bool

	framesPerCycle  int
	marshalAllocs   float64 // per frame
	unmarshalAllocs float64 // per frame
	computeAllocs   float64 // per diff.Compute
	applyAllocs     float64 // per core.ApplyDelta
	deltaBytes      float64 // encoded delta bytes per diff.Compute
	splitBytes      int64
	mismatches      int // cycles whose reconstruction differed from the target

	trace []traceSpan
}

func (r *replayResult) p50(span string) time.Duration {
	vs := append([]float64(nil), r.ns[span]...)
	sort.Float64s(vs)
	return time.Duration(percentile(vs, 0.5))
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// replayLayers replays w's first replayCycles cycles of session 0.
func replayLayers(w *workload, seed uint64) *replayResult {
	r := &replayResult{cycles: w.replayCycles, ns: map[string][]float64{}, splitInsidePut: !w.chunked}
	p := newPlan(w, seed, 0)
	store := vcs.NewStore(1) // env.Default's RetainVersions
	shadows := cache.New(0, cache.LRU)
	chunks := shadows.ChunkStore()
	dir := naming.NewDirectory()
	ring := cluster.NewRing(cluster.DefaultVirtualNodes, memberName(0), memberName(1))
	script := w.scriptText()
	cmds, err := jobs.ParseScript(script)
	if err != nil {
		panic(fmt.Sprintf("bench: job script does not parse: %v", err))
	}

	refs := make([]wire.FileRef, w.files)
	ids := make([]naming.ShadowID, w.files)
	keys := make([]string, w.files)
	var prevOut []byte // the script's previous stdout, held by both ends
	for f := range refs {
		refs[f] = wire.FileRef{Domain: "bench", FileID: fmt.Sprintf("ws0:/u/u0/f%03d/%s", f, dataName)}
		ids[f] = dir.Intern(refs[f])
		keys[f] = refs[f].String()
		v, _ := store.Commit(refs[f], p.files[f].content)
		if err := shadows.Put(ids[f], v, p.files[f].content); err != nil {
			panic(fmt.Sprintf("bench: replay prime: %v", err))
		}
		store.Ack(refs[f], v)
	}
	if w.outputDelta {
		prevOut = jobs.Execute(jobs.Request{Script: script, Commands: cmds, Inputs: map[string][]byte{dataName: p.files[0].content}}).Stdout
	}

	epoch := time.Now()
	spanID := 0
	var root int
	var cycle int
	// timed runs f as one layer span of the current cycle.
	timed := func(name string, f func()) {
		t0 := time.Now()
		f()
		t1 := time.Now()
		r.ns[name][cycle] += float64(t1.Sub(t0))
		spanID++
		r.trace = append(r.trace, traceSpan{ID: spanID, Parent: root, Name: name, Cycle: cycle, StartNs: int64(t0.Sub(epoch)), EndNs: int64(t1.Sub(epoch))})
	}
	for _, name := range replaySpans {
		r.ns[name] = make([]float64, w.replayCycles)
	}
	var frames [][]byte
	var totalFrames, computeOps, applyOps int
	var marshalAllocs, unmarshalAllocs, computeAllocs, applyAllocs uint64
	var deltaBytes int

	for cycle = 0; cycle < w.replayCycles; cycle++ {
		data, _ := p.step()
		ref, id, target := refs[data], ids[data], p.files[data].content
		spanID++
		root = spanID
		rootAt := len(r.trace)
		r.trace = append(r.trace, traceSpan{ID: root, Name: "replay.cycle", Cycle: cycle, StartNs: int64(time.Since(epoch))})

		var version uint64
		timed("vcs.commit", func() { version, _ = store.Commit(ref, target) })
		msgs := []wire.Message{
			&wire.Notify{File: ref, Version: version, Size: int64(len(target)), Sum: diff.Checksum(target)},
			&wire.Pull{File: ref, HaveVersion: version - 1, WantVersion: version},
		}

		var arrived []byte
		if w.chunked {
			var manifest chunk.Manifest
			var content []byte
			timed("chunk.split", func() { manifest, content, err = store.ManifestFor(ref, version) })
			if err != nil {
				panic(fmt.Sprintf("bench: replay manifest: %v", err))
			}
			r.splitBytes += int64(len(content))
			fm := inlineManifest(store, ref, version, manifest, content)
			msgs = append(msgs, fm)
			timed("cache.put", func() { arrived = admitManifest(shadows, chunks, id, fm) })
		} else {
			base, err := store.GetShared(ref, version-1)
			if err != nil {
				panic(fmt.Sprintf("bench: replay base: %v", err))
			}
			var d *diff.Delta
			a0 := mallocs()
			timed("diff.compute", func() { d, err = diff.Compute(diff.HuntMcIlroy, base.Content, target) })
			computeAllocs += mallocs() - a0
			computeOps++
			if err != nil {
				panic(fmt.Sprintf("bench: replay diff: %v", err))
			}
			var encoded []byte
			timed("diff.encode", func() { encoded = d.Encode() })
			deltaBytes += len(encoded)
			fd := &wire.FileDelta{File: ref, BaseVersion: version - 1, Version: version, Encoded: encoded}
			msgs = append(msgs, fd)

			var entry cache.Entry
			timed("cache.get", func() { entry, _ = shadows.Get(id) })
			a0 = mallocs()
			timed("diff.apply", func() { arrived, err = core.ApplyDelta(entry.Content, fd) })
			applyAllocs += mallocs() - a0
			applyOps++
			if err != nil {
				panic(fmt.Sprintf("bench: replay apply: %v", err))
			}
			timed("chunk.split", func() { chunk.Split(arrived, shadows.Params()) })
			r.splitBytes += int64(len(arrived))
			timed("cache.put", func() { err = shadows.PutOwned(id, version, arrived) })
			if err != nil {
				panic(fmt.Sprintf("bench: replay cache put: %v", err))
			}
		}
		store.Ack(ref, version)
		if !bytes.Equal(arrived, target) {
			r.mismatches++
		}

		var res jobs.Result
		timed("jobs.execute", func() {
			res = jobs.Execute(jobs.Request{Script: script, Commands: cmds, Inputs: map[string][]byte{dataName: arrived}})
		})
		out := &wire.Output{Job: uint64(cycle + 1), State: wire.JobDone, ExitCode: res.ExitCode, Mode: wire.OutputFull, Stdout: res.Stdout, Stderr: res.Stderr}
		if w.outputDelta {
			timed("core.output_transfer", func() {
				out.Mode, out.Stdout, err = core.OutputTransfer(prevOut, res.Stdout, diff.HuntMcIlroy, false, core.NopClock{})
			})
			if err != nil {
				panic(fmt.Sprintf("bench: replay output transfer: %v", err))
			}
			var delivered []byte
			timed("core.apply_output", func() { delivered, err = core.ApplyOutput(out.Mode, out.Stdout, prevOut, false) })
			if err != nil || !bytes.Equal(delivered, res.Stdout) {
				r.mismatches++
			}
			prevOut = res.Stdout
		}
		msgs = append(msgs,
			&wire.FileAck{File: ref, Version: version},
			&wire.Submit{Script: script, Inputs: []wire.JobInput{{File: ref, Version: version, As: dataName}}, WantOutputDelta: w.outputDelta, ClientTag: uint64(cycle + 1)},
			&wire.SubmitOK{Job: uint64(cycle + 1)},
			out,
			&wire.OutputAck{Job: uint64(cycle + 1)},
		)

		// The codec, on this cycle's own frames. Each frame is marshalled
		// into its own reused buffer, as the send path's pooled scratch is.
		for len(frames) < len(msgs) {
			frames = append(frames, nil)
		}
		a0 := mallocs()
		timed("wire.marshal", func() {
			for i, m := range msgs {
				frames[i] = wire.AppendMarshal(frames[i][:0], m, wire.TraceContext{})
			}
		})
		a1 := mallocs()
		timed("wire.unmarshal", func() {
			for i := range msgs {
				if _, err := wire.Unmarshal(frames[i]); err != nil {
					panic(fmt.Sprintf("bench: replay unmarshal: %v", err))
				}
			}
		})
		marshalAllocs += a1 - a0
		unmarshalAllocs += mallocs() - a1
		totalFrames += len(msgs)

		if w.members > 1 {
			timed("cluster.owner", func() {
				for i := 0; i < ownerLookupsPerCycle; i++ {
					ring.Owner(keys[data])
				}
			})
		}
		r.trace[rootAt].EndNs = int64(time.Since(epoch))
	}

	r.framesPerCycle = totalFrames / max(w.replayCycles, 1)
	r.marshalAllocs = float64(marshalAllocs) / float64(max(totalFrames, 1))
	r.unmarshalAllocs = float64(unmarshalAllocs) / float64(max(totalFrames, 1))
	r.computeAllocs = float64(computeAllocs) / float64(max(computeOps, 1))
	r.applyAllocs = float64(applyAllocs) / float64(max(applyOps, 1))
	r.deltaBytes = float64(deltaBytes) / float64(max(computeOps, 1))
	return r
}

// inlineManifest builds the chunk-manifest answer to a pull the way the
// chunked client does: every chunk ref of the wanted version, with the
// chunks absent from the base version inlined when they are at most half of
// the file.
func inlineManifest(store *vcs.Store, ref wire.FileRef, version uint64, manifest chunk.Manifest, content []byte) *wire.FileManifest {
	fm := &wire.FileManifest{File: ref, Version: version, Sum: diff.Checksum(content), Chunks: make([]wire.ChunkRef, len(manifest))}
	base := map[chunk.Hash]bool{}
	if bm, _, err := store.ManifestFor(ref, version-1); err == nil {
		for _, c := range bm {
			base[c.Hash] = true
		}
	}
	fresh := 0
	for _, c := range manifest {
		if !base[c.Hash] {
			fresh++
		}
	}
	inlined := map[chunk.Hash]bool{}
	off := 0
	for i, c := range manifest {
		fm.Chunks[i] = wire.ChunkRef{Hash: c.Hash, Len: c.Len}
		if 2*fresh <= len(manifest) && !base[c.Hash] && !inlined[c.Hash] {
			inlined[c.Hash] = true
			fm.Inline = append(fm.Inline, wire.InlineChunk{Index: uint32(i), Data: content[off : off+int(c.Len)]})
		}
		off += int(c.Len)
	}
	return fm
}

// admitManifest stores an arrived manifest the way the server's chunked
// arrival path does when nothing is missing: take a reference on every
// resident chunk, store the inline ones, reassemble and verify the content,
// and hand the references to the cache entry.
func admitManifest(shadows *cache.Cache, chunks *chunk.Store, id naming.ShadowID, fm *wire.FileManifest) []byte {
	manifest := make(chunk.Manifest, len(fm.Chunks))
	missing := map[chunk.Hash]int{}
	for i, c := range fm.Chunks {
		manifest[i] = chunk.Ref{Hash: c.Hash, Len: c.Len}
		if !chunks.Ref(c.Hash) {
			missing[c.Hash]++
		}
	}
	for _, ic := range fm.Inline {
		h := manifest[ic.Index].Hash
		if missing[h] == 0 || chunk.HashOf(ic.Data) != h {
			continue
		}
		chunks.Put(h, ic.Data)
		for k := missing[h]; k > 1; k-- {
			chunks.Ref(h)
		}
		delete(missing, h)
	}
	content, ok := chunks.Assemble(manifest)
	if len(missing) > 0 || !ok || diff.Checksum(content) != fm.Sum {
		return nil // counted as a mismatch by the caller
	}
	shadows.PutManifest(id, fm.Version, manifest)
	return content
}
