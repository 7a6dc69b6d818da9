package main

import "fmt"

// workload describes one traffic mix. Every field is fixed here, not set by
// flags: the same work runs on every commit.
type workload struct {
	name string
	why  string

	// sessions is the number of driver goroutines, each a closed loop with
	// zero think time over its own client.
	sessions int
	// members is the number of clustered servers; 1 is a standalone server.
	members int
	// files is the number of data files per session and fileSize their size.
	files    int
	fileSize int
	// editShare is the share of a file's lines one cycle rewrites in place.
	editShare float64
	// job is the command the job script runs on the cycle's data file.
	job string
	// outputDelta asks for reverse shadow processing of job output.
	outputDelta bool
	// chunked opts the clients into chunk-manifest transfers.
	chunked bool
	// cacheCapacity bounds the server's shadow cache (0 = unbounded).
	cacheCapacity int64
	// share, when nonzero, makes file f of every session a variant of one
	// common base, keeping that share of its blocks.
	share float64
	// hotFiles files take hotShare of the cycles; the rest are spread over
	// the other files. Zero hotFiles means round-robin over all files.
	hotFiles int
	hotShare float64
	// cycles is the number of measured cycles per session per segment: a
	// fixed count, so every commit does the same work.
	cycles int
	// replayCycles is how many cycles of session 0 the layer replay times.
	replayCycles int
}

// warmupShare of the measured cycle count runs unmeasured before each
// measured phase.
const warmupShare = 0.05

// warmupCycles is the unmeasured warm-up that goes with cycles measured ones.
func warmupCycles(cycles int) int { return int(float64(cycles)*warmupShare + 0.5) }

// The cycle counts size a segment to about 3 s, and to at most about 1 GB of
// heap retained by the never-forgotten jobs, at the commit that added the
// benchmark.
var workloads = []*workload{
	{
		name:     "edit-small",
		why:      "8 KiB file, 5% edited: per-message cost (codec, session loop, syscalls) dominates, bytes do not",
		sessions: 2, members: 1, files: 1, fileSize: 8 << 10, editShare: 0.05,
		job: "checksum", cycles: 15000, replayCycles: 200,
	},
	{
		name:     "edit-large",
		why:      "256 KiB file, 1% edited: per-byte cost (commit, diff, apply, chunk hashing) dominates, same frames as edit-small",
		sessions: 2, members: 1, files: 1, fileSize: 256 << 10, editShare: 0.01,
		job: "checksum", cycles: 1500, replayCycles: 50,
	},
	{
		name:     "output-large",
		why:      "256 KiB sorted output returned as a delta: diff and apply run server-to-client and the job does real work",
		sessions: 2, members: 1, files: 1, fileSize: 256 << 10, editShare: 0.01,
		job: "sort", outputDelta: true, cycles: 400, replayCycles: 50,
	},
	{
		name:     "chunk-pressure",
		why:      "chunked clients, shared content, working set above the cache: manifests, chunk requests, eviction, rehydration",
		sessions: 2, members: 1, files: 64, fileSize: 64 << 10, editShare: 0.02,
		job: "checksum", chunked: true, cacheCapacity: 3 << 20, share: 0.9,
		hotFiles: 8, hotShare: 0.8, cycles: 5000, replayCycles: 200,
	},
	{
		name:     "cluster-2",
		why:      "two servers joined over TCP, script and data on different members half the time: ring lookups, peer forwarding",
		sessions: 1, members: 2, files: 16, fileSize: 32 << 10, editShare: 0.05,
		job: "checksum", cycles: 6000, replayCycles: 200,
	},
}

func workloadNamed(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// segmentSeed spaces the segments' seeds so segment k of one run shares no
// generator state with segment k+1 of a run on the next seed.
func segmentSeed(seed int64, k int) uint64 { return uint64(seed) + 7919*uint64(k) }

// dataName is the name every job script uses for its input: each data file
// lives in its own directory under this base name, so one script serves
// every file.
const dataName = "data.dat"

// plan is one session's deterministic script: its files and, cycle by cycle,
// which file is edited and submitted. The driver steps one plan against the
// live system and the oracle steps an identical one to recompute the
// expected outputs, so the two must be built from the same arguments.
type plan struct {
	w     *workload
	rng   *rng
	files []*file
	cycle int
}

// newPlan generates session's files for a segment seed. Shared-content
// workloads derive every session's file f from one base, so the bases come
// from a generator keyed by the seed alone.
func newPlan(w *workload, seed uint64, session int) *plan {
	p := &plan{w: w, rng: newRNG(seed ^ (uint64(session)+1)*0x5851f42d4c957f2d)}
	var bases *rng
	if w.share > 0 {
		bases = newRNG(seed ^ 0xba5e)
	}
	for f := 0; f < w.files; f++ {
		if bases != nil {
			p.files = append(p.files, sharedVariant(p.rng, genFile(bases, w.fileSize), w.share))
		} else {
			p.files = append(p.files, genFile(p.rng, w.fileSize))
		}
	}
	return p
}

// step chooses the next cycle's data file and script, edits the file in
// place, and returns both indices.
func (p *plan) step() (data, script int) {
	c := p.cycle
	p.cycle++
	switch {
	case p.w.hotFiles > 0:
		if p.rng.float() < p.w.hotShare {
			data = p.rng.intn(p.w.hotFiles)
		} else {
			data = p.w.hotFiles + p.rng.intn(p.w.files-p.w.hotFiles)
		}
	default:
		data = c % p.w.files
	}
	// Scripts rotate one place against the data files on every pass, so a
	// clustered run visits every script and data pairing.
	script = (c + c/p.w.files) % p.w.scripts()
	p.files[data].edit(p.rng, p.w.editShare)
	return data, script
}

// scripts is the number of job scripts per session: one, except on a
// cluster, where each data file has a script and placement spreads them.
func (w *workload) scripts() int {
	if w.members > 1 {
		return w.files
	}
	return 1
}

// scriptText is the one-line job every script of the workload holds.
func (w *workload) scriptText() []byte { return []byte(w.job + " " + dataName + "\n") }
