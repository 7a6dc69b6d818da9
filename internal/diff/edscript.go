package diff

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// EdScript renders an LCS delta as a classic `diff -e` ed script: commands in
// descending line order so each command's addresses refer to the original
// file, with appended/changed text terminated by a lone ".".
//
// Like real ed scripts, the format cannot represent every byte sequence: an
// inserted line consisting of exactly "." would terminate input mode early,
// and a final line with no trailing newline has no textual representation.
// EdScript returns an error in those cases (and for block-move deltas, which
// ed cannot express); the binary wire encoding in Encode has no such limits
// and is what the protocol actually transmits.
func (d *Delta) EdScript() (string, error) {
	if d.isBlockMove() && len(d.Ops) > 0 {
		return "", fmt.Errorf("diff: block-move delta has no ed script form")
	}
	var sb strings.Builder
	for _, op := range d.Ops {
		switch op.Kind {
		case OpDelete:
			sb.WriteString(edAddr(op.BaseStart, op.BaseEnd))
			sb.WriteString("d\n")
		case OpChange:
			sb.WriteString(edAddr(op.BaseStart, op.BaseEnd))
			sb.WriteString("c\n")
			if err := edText(&sb, op.Lines); err != nil {
				return "", err
			}
		case OpInsert:
			sb.WriteString(strconv.Itoa(op.BaseStart))
			sb.WriteString("a\n")
			if err := edText(&sb, op.Lines); err != nil {
				return "", err
			}
		default:
			return "", fmt.Errorf("diff: op kind %v has no ed script form", op.Kind)
		}
	}
	return sb.String(), nil
}

func edAddr(start, end int) string {
	if start == end {
		return strconv.Itoa(start)
	}
	return strconv.Itoa(start) + "," + strconv.Itoa(end)
}

func edText(sb *strings.Builder, lines [][]byte) error {
	for _, l := range lines {
		if len(l) == 0 || l[len(l)-1] != '\n' {
			return fmt.Errorf("diff: line without trailing newline has no ed script form")
		}
		if bytes.Equal(l, dotLine) {
			return fmt.Errorf("diff: line %q has no ed script form", l)
		}
		sb.Write(l)
	}
	sb.WriteString(".\n")
	return nil
}

var dotLine = []byte(".\n")

// ParseEdScript parses an ed script in the dialect EdScript emits back into
// the ops of a delta. Checksums and lengths are not recoverable from the
// script; the returned ops can be applied with ApplyOps.
func ParseEdScript(script string) ([]Op, error) {
	var ops []Op
	lines := strings.SplitAfter(script, "\n")
	i := 0
	next := func() (string, bool) {
		for i < len(lines) {
			l := lines[i]
			i++
			if l != "" {
				return l, true
			}
		}
		return "", false
	}
	for {
		cmd, ok := next()
		if !ok {
			return ops, nil
		}
		cmd = strings.TrimSuffix(cmd, "\n")
		if cmd == "" {
			continue
		}
		kind := cmd[len(cmd)-1]
		start, end, err := parseEdAddr(cmd[:len(cmd)-1])
		if err != nil {
			return nil, fmt.Errorf("diff: parse ed script: %w", err)
		}
		var body [][]byte
		if kind == 'a' || kind == 'c' {
			for {
				l, ok := next()
				if !ok {
					return nil, fmt.Errorf("diff: parse ed script: unterminated text block")
				}
				if l == ".\n" || l == "." {
					break
				}
				body = append(body, []byte(l))
			}
		}
		switch kind {
		case 'd':
			ops = append(ops, Op{Kind: OpDelete, BaseStart: start, BaseEnd: end})
		case 'c':
			ops = append(ops, Op{Kind: OpChange, BaseStart: start, BaseEnd: end, Lines: body})
		case 'a':
			ops = append(ops, Op{Kind: OpInsert, BaseStart: start, Lines: body})
		default:
			return nil, fmt.Errorf("diff: parse ed script: unknown command %q", cmd)
		}
	}
}

func parseEdAddr(addr string) (start, end int, err error) {
	first, rest, found := strings.Cut(addr, ",")
	start, err = strconv.Atoi(first)
	if err != nil {
		return 0, 0, fmt.Errorf("bad address %q", addr)
	}
	end = start
	if found {
		end, err = strconv.Atoi(rest)
		if err != nil {
			return 0, 0, fmt.Errorf("bad address %q", addr)
		}
	}
	return start, end, nil
}

// ApplyOps applies bare ops (for example, ops parsed from an ed script) to
// base content without checksum verification. Prefer Delta.Apply when the
// full delta is available.
func ApplyOps(ops []Op, base []byte) ([]byte, error) {
	for _, op := range ops {
		if op.Kind == OpCopy {
			return applyBlockMove(ops, SplitLines(base))
		}
	}
	out, _, err := applyEdits(nil, ops, base)
	return out, err
}
