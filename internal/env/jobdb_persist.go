package env

import (
	"bufio"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"shadowedit/internal/wire"
)

// Persistence for the job database: the shadow environment "contains the
// information about the status of all the jobs submitted", which the
// prototype kept on disk so a user could query job status across sessions.
// The text format is line oriented, one job per record, editable by hand
// like the rest of the environment.

// ErrCorruptJobDB reports an unreadable serialized job database.
var ErrCorruptJobDB = errors.New("env: corrupt job database")

// Save serializes the database.
func (db *JobDB) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("# shadow job database v1\n"); err != nil {
		return err
	}
	for _, rec := range db.List() {
		fmt.Fprintf(bw, "job %s %d\n", rec.Server, rec.ID)
		fmt.Fprintf(bw, "  state %d\n", rec.State)
		if rec.Detail != "" {
			fmt.Fprintf(bw, "  detail %s\n", encodeField(rec.Detail))
		}
		if rec.OutputFile != "" {
			fmt.Fprintf(bw, "  output-file %s\n", encodeField(rec.OutputFile))
		}
		if rec.ErrorFile != "" {
			fmt.Fprintf(bw, "  error-file %s\n", encodeField(rec.ErrorFile))
		}
		if rec.Delivered {
			fmt.Fprintf(bw, "  exit %d\n", rec.ExitCode)
			if rec.OutputOnDisk {
				// The bytes are in the result files, not in memory.
				fmt.Fprintf(bw, "  on-disk\n")
			} else {
				fmt.Fprintf(bw, "  stdout %s\n", base64.StdEncoding.EncodeToString(rec.Stdout))
				fmt.Fprintf(bw, "  stderr %s\n", base64.StdEncoding.EncodeToString(rec.Stderr))
			}
			fmt.Fprintf(bw, "  delivered\n")
		}
	}
	return bw.Flush()
}

// encodeField makes a string single-line safe.
func encodeField(s string) string {
	return base64.StdEncoding.EncodeToString([]byte(s))
}

func decodeField(s string) (string, error) {
	b, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrCorruptJobDB, err)
	}
	return string(b), nil
}

// LoadJobDB restores a database saved with Save.
func LoadJobDB(r io.Reader) (*JobDB, error) {
	db := NewJobDB()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	var cur *JobRecord
	flush := func() {
		if cur != nil {
			db.Record(*cur)
			cur = nil
		}
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, rest, _ := strings.Cut(line, " ")
		switch key {
		case "job":
			flush()
			server, idStr, ok := strings.Cut(rest, " ")
			if !ok {
				return nil, fmt.Errorf("%w: line %d: bad job header", ErrCorruptJobDB, lineNo)
			}
			id, err := strconv.ParseUint(idStr, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrCorruptJobDB, lineNo, err)
			}
			cur = &JobRecord{Server: server, ID: id}
		case "state", "detail", "output-file", "error-file", "exit", "stdout", "stderr", "on-disk", "delivered":
			if cur == nil {
				return nil, fmt.Errorf("%w: line %d: field outside job record", ErrCorruptJobDB, lineNo)
			}
			if err := applyField(cur, key, rest); err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrCorruptJobDB, lineNo, err)
			}
		default:
			return nil, fmt.Errorf("%w: line %d: unknown field %q", ErrCorruptJobDB, lineNo, key)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptJobDB, err)
	}
	flush()
	return db, nil
}

func applyField(rec *JobRecord, key, rest string) error {
	switch key {
	case "state":
		v, err := strconv.ParseUint(rest, 10, 8)
		if err != nil {
			return err
		}
		rec.State = wire.JobState(v)
	case "detail":
		s, err := decodeField(rest)
		if err != nil {
			return err
		}
		rec.Detail = s
	case "output-file":
		s, err := decodeField(rest)
		if err != nil {
			return err
		}
		rec.OutputFile = s
	case "error-file":
		s, err := decodeField(rest)
		if err != nil {
			return err
		}
		rec.ErrorFile = s
	case "exit":
		v, err := strconv.ParseInt(rest, 10, 32)
		if err != nil {
			return err
		}
		rec.ExitCode = int32(v)
	case "stdout":
		b, err := base64.StdEncoding.DecodeString(rest)
		if err != nil {
			return err
		}
		rec.Stdout = b
	case "stderr":
		b, err := base64.StdEncoding.DecodeString(rest)
		if err != nil {
			return err
		}
		rec.Stderr = b
	case "on-disk":
		rec.OutputOnDisk = true
	case "delivered":
		rec.Delivered = true
	}
	return nil
}
