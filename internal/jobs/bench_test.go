package jobs

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchText returns about size bytes of newline-terminated lines shaped like
// the benchmark's files: prefix, then lower-case words of 2 to 9 letters
// separated by single spaces, 20 to 94 bytes a line.
func benchText(seed int64, size int, prefix string) []byte {
	rng := rand.New(rand.NewSource(seed))
	var out []byte
	for len(out) < size {
		out = append(out, prefix...)
		start := len(out)
		end := start + 20 + rng.Intn(75)
		for word := 0; len(out) < end; word-- {
			if word == 0 {
				word = 2 + rng.Intn(8)
				if len(out) > start {
					out = append(out, ' ')
					continue
				}
			}
			out = append(out, byte('a'+rng.Intn(26)))
		}
		out = append(out, '\n')
	}
	return out
}

// BenchmarkExecute times the job interpreter on the benchmark's job shapes:
// sort (the output-large job), uniq and grep (the other line commands) and
// checksum (every other workload's job), on an 8 KiB and a 256 KiB file, and
// sort again on lines that share a 14-byte prefix.
func BenchmarkExecute(b *testing.B) {
	files := []struct {
		name    string
		content []byte
	}{
		{"8k", benchText(1, 8<<10, "")},
		{"256k", benchText(2, 256<<10, "")},
		{"256k-prefix", benchText(3, 256<<10, "shared-prefix ")},
	}
	for _, job := range []string{"sort", "uniq", "grep ab", "checksum"} {
		cmds, err := ParseScript([]byte(job + " data\n"))
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range files {
			if f.name == "256k-prefix" && job != "sort" {
				continue
			}
			req := Request{Commands: cmds, Inputs: map[string][]byte{"data": f.content}}
			b.Run(fmt.Sprintf("%s/%s", cmds[0].Name, f.name), func(b *testing.B) {
				b.SetBytes(int64(len(f.content)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if res := Execute(req); res.ExitCode != 0 {
						b.Fatalf("exit %d: %s", res.ExitCode, res.Stderr)
					}
				}
			})
		}
	}
}
