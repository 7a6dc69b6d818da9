package main

import (
	"sort"
	"strings"
	"time"
)

// perLayerMetrics assembles the per-layer report of a traced run from three
// sources, all outside the product: the boundary spans of the traced
// segments, the public counters read at the end of every segment, and the
// layer replay. Counters, histograms and runtime figures are taken from the
// untraced segments, so they describe the system as the end-to-end metrics
// saw it; only what exists solely under tracing (the boundary spans and the
// tracer's own statistics) comes from the traced segments. Every metric is
// reported on every workload; one that does not apply reads 0.
func perLayerMetrics(res *runResult) []metric {
	u, t, rp := res.untraced, res.traced, res.replay
	nu := len(u)
	per := func(f func(*segmentResult) float64) float64 {
		return overSegments(u, func(s *segmentResult) float64 { return perCycle(f(s), s) })
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	msOf := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

	// Boundary spans, pooled over the sessions of each traced segment.
	spanSamples := 0
	spanPct := func(p float64, dur func(cycleSpans) int64) float64 {
		return overSegments(t, func(s *segmentResult) float64 {
			var vs []float64
			for _, l := range s.spans {
				for _, c := range l.cycles {
					vs = append(vs, float64(dur(c)))
				}
			}
			sort.Float64s(vs)
			return percentile(vs, p)
		})
	}
	for _, s := range t {
		for _, l := range s.spans {
			spanSamples += len(l.cycles)
		}
	}

	cps := func(segs []*segmentResult) float64 {
		return overSegments(segs, func(s *segmentResult) float64 { return float64(s.cycles) / s.wallS })
	}
	cycleP50 := overSegments(u, func(s *segmentResult) float64 { return percentile(s.latenciesMs, 0.5) })

	out := []metric{
		{"client.submit_p50_ms", "ms", spanPct(0.5, func(c cycleSpans) int64 { return c.Wait - c.Submit }) / 1e6, spanSamples},
		{"client.wait_p50_ms", "ms", spanPct(0.5, func(c cycleSpans) int64 { return c.End - c.Wait }) / 1e6, spanSamples},
		{"client.write_p50_us", "us", spanPct(0.5, func(c cycleSpans) int64 { return c.Submit - c.Write }) / 1e3, spanSamples},
		{"client.cycle_p99_ms", "ms", spanPct(0.99, func(c cycleSpans) int64 { return c.End - c.Submit }) / 1e6, spanSamples},
		{"client.owner_misses_per_cycle", "count", per(func(s *segmentResult) float64 { return float64(s.ownerMisses) }), nu},

		{"server.submit_ack_p50_us", "us", overSegments(u, func(s *segmentResult) float64 { return us(s.submitAck) }), nu},
		{"server.pull_arrival_p50_ms", "ms", overSegments(u, func(s *segmentResult) float64 { return msOf(s.pullArrival) }), nu},
		{"server.job_lifetime_p50_ms", "ms", overSegments(u, func(s *segmentResult) float64 { return msOf(s.jobLifetime) }), nu},
		{"server.pulls_per_cycle", "count", per(func(s *segmentResult) float64 { return float64(s.srv.PullsIssued) }), nu},
		{"server.delta_sends_per_cycle", "count", per(func(s *segmentResult) float64 { return float64(s.srv.DeltaSends) }), nu},
		{"server.full_sends_per_cycle", "count", per(func(s *segmentResult) float64 { return float64(s.srv.FullSends) }), nu},
		{"server.full_fallbacks_per_cycle", "count", per(func(s *segmentResult) float64 { return float64(s.srv.FullFallbacks) }), nu},
		{"server.rehydrations_per_cycle", "count", per(func(s *segmentResult) float64 { return float64(s.srv.Rehydrations) }), nu},
		{"server.chunks_requested_per_cycle", "count", per(func(s *segmentResult) float64 { return float64(s.srv.ChunksRequested) }), nu},
		{"server.peer_forwards_per_cycle", "count", per(func(s *segmentResult) float64 { return float64(s.srv.PeerForwards) }), nu},
		{"server.peer_negatives_per_cycle", "count", per(func(s *segmentResult) float64 { return float64(s.srv.PeerNegatives) }), nu},
		{"server.peer_useful_ratio", "ratio", overSegments(u, func(s *segmentResult) float64 {
			return ratio(float64(s.srv.PeerForwards), float64(s.srv.PeerForwards+s.srv.PeerNegatives))
		}), nu},
		{"server.peer_bytes_per_cycle", "B", per(func(s *segmentResult) float64 {
			return float64(s.srv.PeerDeltaBytes + s.srv.PeerManifestBytes + s.srv.PeerChunkBytes)
		}), nu},
		{"cluster.cross_owner_share", "ratio", per(func(s *segmentResult) float64 { return float64(s.crossOwner) }), nu},
		{"cluster.owner_ns_per_op", "ns", float64(rp.p50("cluster.owner")) / ownerLookupsPerCycle, rp.cycles},

		{"wire.up_bytes_per_cycle", "B", per(func(s *segmentResult) float64 { return float64(s.wire.upBytes) }), nu},
		{"wire.down_bytes_per_cycle", "B", per(func(s *segmentResult) float64 { return float64(s.wire.downBytes) }), nu},
		{"wire.prime_bytes_per_file", "B", overSegments(u, func(s *segmentResult) float64 {
			return ratio(float64(s.primeWire.bytes()), float64(s.primedFiles))
		}), nu},
		{"wire.marshal_ns_per_frame", "ns", ratio(float64(rp.p50("wire.marshal")), float64(rp.framesPerCycle)), rp.cycles},
		{"wire.unmarshal_ns_per_frame", "ns", ratio(float64(rp.p50("wire.unmarshal")), float64(rp.framesPerCycle)), rp.cycles},
		{"wire.marshal_allocs_per_frame", "count", rp.marshalAllocs, rp.cycles},
		{"wire.unmarshal_allocs_per_frame", "count", rp.unmarshalAllocs, rp.cycles},

		{"vcs.commit_p50_us", "us", us(rp.p50("vcs.commit")), rp.cycles},
		{"diff.compute_p50_us", "us", us(rp.p50("diff.compute")), rp.cycles},
		{"diff.encode_p50_us", "us", us(rp.p50("diff.encode")), rp.cycles},
		{"diff.apply_p50_us", "us", us(rp.p50("diff.apply")), rp.cycles},
		{"diff.delta_bytes_per_op", "B", rp.deltaBytes, rp.cycles},
		{"diff.compute_allocs_per_op", "count", rp.computeAllocs, rp.cycles},
		{"diff.apply_allocs_per_op", "count", rp.applyAllocs, rp.cycles},
		{"core.output_transfer_p50_us", "us", us(rp.p50("core.output_transfer")), rp.cycles},
		{"core.apply_output_p50_us", "us", us(rp.p50("core.apply_output")), rp.cycles},

		{"chunk.split_mb_per_s", "MB/s", ratio(float64(rp.splitBytes)/1e6, sum(rp.ns["chunk.split"])/1e9), rp.cycles},
		{"chunk.fresh_chunk_ratio", "ratio", overSegments(u, func(s *segmentResult) float64 {
			return ratio(float64(s.chunkPuts), float64(s.chunkPuts+s.chunkDups))
		}), nu},
		{"cache.put_p50_us", "us", us(rp.p50("cache.put")), rp.cycles},
		{"cache.get_p50_us", "us", us(rp.p50("cache.get")), rp.cycles},
		{"cache.hit_ratio", "ratio", overSegments(u, func(s *segmentResult) float64 {
			return ratio(float64(s.srv.CacheHits), float64(s.srv.CacheHits+s.srv.CacheMisses))
		}), nu},
		{"cache.evictions_per_cycle", "count", per(func(s *segmentResult) float64 { return float64(s.srv.CacheEvictions) }), nu},
		{"cache.dedup_ratio", "ratio", overSegments(u, func(s *segmentResult) float64 { return s.dedupRatio }), nu},

		{"jobs.execute_p50_us", "us", us(rp.p50("jobs.execute")), rp.cycles},

		{"runtime.allocs_per_cycle", "count", per(func(s *segmentResult) float64 { return float64(s.mallocs) }), nu},
		{"runtime.alloc_kb_per_cycle", "KiB", per(func(s *segmentResult) float64 { return float64(s.allocBytes) / 1024 }), nu},
		{"runtime.gc_cpu_share", "ratio", overSegments(u, func(s *segmentResult) float64 { return s.gcCPUShare }), nu},
		{"runtime.goroutines", "count", overSegments(u, func(s *segmentResult) float64 { return float64(s.goroutines) }), nu},

		{"trace.overhead_share", "ratio", 1 - ratio(cps(t), cps(u)), len(t)},
		{"trace.spans_per_cycle", "count", overSegments(t, func(s *segmentResult) float64 {
			// The tracer counts from deployment; priming and warm-up cycles
			// mint spans at the same rate as measured ones.
			return ratio(float64(s.traceSpans), float64(s.attempted))
		}), len(t)},
	}

	// The layer budget: each replay span's median over the untraced median
	// cycle, and what no layer accounts for.
	attributed := 0.0
	for _, name := range replaySpans {
		d := rp.p50(name)
		if name == "cache.put" && rp.splitInsidePut {
			d = max(d-rp.p50("chunk.split"), 0)
		}
		share := ratio(msOf(d), cycleP50)
		attributed += share
		out = append(out, metric{budgetName(name), "ratio", share, rp.cycles})
	}
	out = append(out, metric{"budget.unattributed_share", "ratio", 1 - attributed, rp.cycles})
	return out
}

// budgetName turns a replay span's name into its budget metric's name:
// "diff.compute" becomes "budget.diff_compute_share".
func budgetName(span string) string {
	return "budget." + strings.ReplaceAll(span, ".", "_") + "_share"
}

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}
