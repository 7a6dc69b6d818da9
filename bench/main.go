// Command bench is the repository's benchmark: five edit–submit–fetch
// workloads against an in-process shadow daemon reached over real loopback
// TCP, the way cmd/shadowd serves it. See README.md in this directory.
//
//	go -C bench run .                                       every workload, untraced then traced
//	go -C bench run . -workload edit-small -trace 1         one run, contract JSON as the last line
//	go -C bench run . -compare a.json b.json                two results against BENCHMARK.json's bounds
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run this one workload in this process and print the contract's JSON as the last line; empty runs every workload, each in a process of its own")
		seed         = fs.Int64("seed", 1987, "input seed; segment k generates from seed + 7919*k")
		seconds      = fs.Float64("seconds", 18, "how long one run should take: a segment is sized to 3 s, so this sets the segment count (at least five)")
		traceMode    = fs.Int("trace", 0, "0: end-to-end metrics from untraced segments; 1: also traced segments and the layer replay, per-layer metrics")
		compare      = fs.Bool("compare", false, "compare two result files (arguments: a.json b.json) against BENCHMARK.json's bounds")
		out          = fs.String("out", "", "where a run of every workload writes its result (default bench/out/result.json)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	outDir := filepath.Join(root, "bench", "out")
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(root, fs.Arg(0), fs.Arg(1))
	case *workloadName != "":
		w, err := workloadNamed(*workloadName)
		if err != nil {
			return err
		}
		return runOne(outDir, root, w, runOptions{seed: *seed, seconds: *seconds, traced: *traceMode != 0})
	default:
		if *out == "" {
			*out = filepath.Join(outDir, "result.json")
		}
		return runAll(outDir, *out, *seed, *seconds)
	}
}

// repoRoot finds the checkout: the nearest directory at or above the working
// directory that holds BENCHMARK.json.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found at or above the working directory")
		}
		dir = parent
	}
}

// contractLine is the last line of a single-workload run's standard output.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runDetail is what a single-workload run leaves in bench/out for the run
// of every workload (and a curious reader) to pick up: everything the
// contract's line has no room for.
type runDetail struct {
	Stamp     stamp    `json:"stamp"`
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Segments  int      `json:"segments"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	EndToEnd  []metric `json:"end_to_end"`
	PerLayer  []metric `json:"per_layer,omitempty"`
}

func detailPath(outDir, workload string, traced bool) string {
	return filepath.Join(outDir, fmt.Sprintf("run-%s-trace%d.json", workload, btoi(traced)))
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runOne runs one workload in this process, prints its metrics by name and
// unit, writes the detail and trace files, and prints the contract's JSON.
func runOne(outDir, root string, w *workload, opts runOptions) error {
	res, err := runWorkload(context.Background(), w, opts)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	st := newStamp(root, opts.seed)
	st.Segments[w.name] = len(res.untraced)
	st.Cycles[w.name] = res.cycles

	printHeader(os.Stdout, st)
	printRun(os.Stdout, res)

	correct := res.failed == 0
	reported := res.endToEnd
	if opts.traced {
		reported = res.perLayer
		correct = correct && res.replay.mismatches == 0
		var logs []*spanLog
		for _, seg := range res.traced {
			logs = append(logs, seg.spans...)
		}
		if err := writeTrace(filepath.Join(outDir, "trace-"+w.name+".json"), logs, res.replay.trace); err != nil {
			return err
		}
	}
	detail := runDetail{
		Stamp: st, Workload: w.name, Traced: opts.traced, Segments: len(res.untraced),
		Attempted: res.attempted, Failed: res.failed, EndToEnd: res.endToEnd, PerLayer: res.perLayer,
	}
	if err := writeJSON(detailPath(outDir, w.name, opts.traced), detail); err != nil {
		return err
	}

	line := contractLine{Correct: correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]contractValue{}}
	for _, m := range reported {
		line.Metrics[m.Name] = contractValue{Value: m.Value, Unit: m.Unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	return nil
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// result is the file a run of every workload writes and -compare reads.
type result struct {
	Stamp     stamp                     `json:"stamp"`
	Workloads map[string]workloadResult `json:"workloads"`
}

type workloadResult struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	EndToEnd  []metric `json:"end_to_end"`
	PerLayer  []metric `json:"per_layer"`
}

// runAll runs every workload, untraced then traced, each pass in a fresh
// process of this same program so that neither resident memory nor collector
// state carries from one to the next.
func runAll(outDir, outPath string, seed int64, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := result{Workloads: map[string]workloadResult{}}
	failed := false
	for _, w := range workloads {
		var wr workloadResult
		for _, traced := range []bool{false, true} {
			cmd := exec.Command(self,
				"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(btoi(traced)))
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (trace %d): %w", w.name, btoi(traced), err)
			}
			// Everything but the contract's line is for people.
			text := strings.TrimRight(stdout.String(), "\n")
			last := strings.LastIndexByte(text, '\n')
			human, contract := text[:last+1], text[last+1:]
			if traced || w != workloads[0] {
				// One header is enough.
				human = human[strings.Index(human, "\n\n")+2:]
			}
			fmt.Print(human)
			var line contractLine
			if err := json.Unmarshal([]byte(contract), &line); err != nil {
				return fmt.Errorf("%s (trace %d): last line is not the contract's JSON: %w", w.name, btoi(traced), err)
			}
			failed = failed || !line.Correct

			var detail runDetail
			buf, err := os.ReadFile(detailPath(outDir, w.name, traced))
			if err != nil {
				return err
			}
			if err := json.Unmarshal(buf, &detail); err != nil {
				return err
			}
			if traced {
				wr.PerLayer = detail.PerLayer
			} else {
				wr.Attempted, wr.Failed, wr.EndToEnd = detail.Attempted, detail.Failed, detail.EndToEnd
				if all.Stamp.Segments == nil {
					all.Stamp = detail.Stamp
				}
				all.Stamp.Segments[w.name] = detail.Segments
				all.Stamp.Cycles[w.name] = detail.Stamp.Cycles[w.name]
			}
		}
		all.Workloads[w.name] = wr
	}
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		return err
	}
	if err := writeJSON(outPath, all); err != nil {
		return err
	}
	fmt.Printf("result written to %s\n", outPath)
	if failed {
		return errors.New("some outputs were wrong; see failed_share above")
	}
	return nil
}
