package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison needs: each
// end-to-end metric's direction and regression bound.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func readSpec(root string) (*benchmarkSpec, error) {
	buf, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(buf, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

func readResult(path string) (*result, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worsening returns by what share of a the value b is worse than a, given
// which direction is better; negative means b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, for every workload and end-to-end metric, how much
// worse b is than a against the bound BENCHMARK.json declares, one row each,
// and fails if any row breaches its bound or b failed a larger share of its
// cycles than a.
func compareFiles(root, pathA, pathB string) error {
	spec, err := readSpec(root)
	if err != nil {
		return err
	}
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("a: %s (commit %s, seed %d)\nb: %s (commit %s, seed %d)\n", pathA, a.Stamp.Commit, a.Stamp.Seed, pathB, b.Stamp.Commit, b.Stamp.Seed)
	fmt.Printf("%-16s %-24s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	breaches := 0
	for _, w := range spec.Workloads {
		wa, okA := a.Workloads[w.Name]
		wb, okB := b.Workloads[w.Name]
		if !okA || !okB {
			fmt.Printf("%-16s missing from a result\n", w.Name)
			breaches++
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := valueOf(wa.EndToEnd, m.Name), valueOf(wb.EndToEnd, m.Name)
			worse := worsening(va, vb, m.Better)
			verdict := ""
			if worse > m.Bound {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Printf("%-16s %-24s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", w.Name, m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
		shareA, shareB := failedShare(wa), failedShare(wb)
		verdict := ""
		if shareB > shareA {
			verdict = "  BREACH"
			breaches++
		}
		fmt.Printf("%-16s %-24s %14.6g %14.6g %9s %7s%s\n", w.Name, "failed_share", shareA, shareB, "", "none", verdict)
	}
	if breaches > 0 {
		return fmt.Errorf("%d rows breach their bound", breaches)
	}
	return nil
}

func valueOf(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

func failedShare(w workloadResult) float64 {
	if w.Attempted == 0 {
		return 0
	}
	return float64(w.Failed) / float64(w.Attempted)
}
