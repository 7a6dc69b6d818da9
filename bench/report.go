package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// gitCommit names the commit of the checkout, or says there is none (the
// benchmark also runs from exported trees that are not repositories).
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	commit := strings.TrimSpace(string(out))
	if dirty, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(dirty) > 0 {
		commit += "+dirty"
	}
	return commit
}

func kernelRelease() string {
	buf, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(buf))
}

func printHeader(w io.Writer, st stamp) {
	fmt.Fprintf(w, "shadow edit–submit–fetch benchmark\n")
	fmt.Fprintf(w, "  commit %s, %s, GOMAXPROCS %d of %d CPUs, kernel %s\n", st.Commit, st.GoVersion, st.GOMAXPROCS, st.NumCPU, st.Kernel)
	fmt.Fprintf(w, "  link: %s\n", st.Link)
	fmt.Fprintf(w, "  seed %d; closed loop, zero think time, one connection per session\n\n", st.Seed)
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		n := ""
		if m.Samples > 0 {
			n = fmt.Sprintf("  (n=%d)", m.Samples)
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-6s%s\n", m.Name, m.Value, m.Unit, n)
	}
}

// printRun prints one workload run: every metric by name with its unit and,
// beside each, the number of samples or segments behind it.
func printRun(w io.Writer, res *runResult) {
	wl := res.workload
	fmt.Fprintf(w, "%s — %s\n", wl.name, wl.why)
	fmt.Fprintf(w, "  %d session(s) × %d measured cycles per segment (+%d warm-up), %d untraced and %d traced segments\n",
		wl.sessions, res.cycles, warmupCycles(res.cycles), len(res.untraced), len(res.traced))
	if res.perLayer != nil {
		fmt.Fprintf(w, "  end to end on this traced run's own untraced segments (the budget's denominator; the reported end-to-end numbers are the untraced run's)\n")
	}
	printMetrics(w, res.endToEnd)
	// The values the medians above were taken over, to show their spread.
	bySegment := func(name string, f func(*segmentResult) float64) {
		fmt.Fprintf(w, "  %-36s", name+" by segment")
		for _, seg := range res.untraced {
			fmt.Fprintf(w, " %.5g", f(seg))
		}
		fmt.Fprintln(w)
	}
	bySegment("cycles_per_s", func(s *segmentResult) float64 { return float64(s.cycles) / s.wallS })
	bySegment("cycle_p50_ms", func(s *segmentResult) float64 { return percentile(s.latenciesMs, 0.5) })
	share := 0.0
	if res.attempted > 0 {
		share = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(w, "  %-36s %14.6g %-6s  (%d failed of %d cycles, priming and warm-up included)\n", "failed_share", share, "ratio", res.failed, res.attempted)
	if res.perLayer != nil {
		fmt.Fprintf(w, "  per layer (counters from the untraced segments; spans from the traced ones; replay of %d cycles)\n", res.replay.cycles)
		printMetrics(w, res.perLayer)
		if res.replay.mismatches > 0 {
			fmt.Fprintf(w, "  REPLAY MISMATCH: %d cycles did not reconstruct their target\n", res.replay.mismatches)
		}
	}
	fmt.Fprintln(w)
}
