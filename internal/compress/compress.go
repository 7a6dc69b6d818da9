// Package compress provides the optional data-compression layer the paper
// lists as future work (§8.3: "We also plan to explore data compression
// techniques to improve the efficiency of data transfer").
//
// Payloads (deltas, full files, job output) are DEFLATE-compressed before
// transmission when that actually shrinks them; a one-byte header records
// whether the body is compressed, so expansion on incompressible data is
// capped at one byte.
package compress

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
)

// Errors reported by Decode.
var (
	// ErrCorrupt reports undecodable input.
	ErrCorrupt = errors.New("compress: corrupt payload")
)

const (
	tagRaw  = 0
	tagZlib = 1
)

// maxDecoded bounds decompression output to resist decompression bombs.
const maxDecoded = 256 << 20

// Encode returns payload in the framed format, compressed if compression
// helps. The empty payload encodes to a single raw tag byte.
func Encode(payload []byte) []byte {
	var buf bytes.Buffer
	buf.WriteByte(tagZlib)
	w, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err == nil {
		if _, err = w.Write(payload); err == nil {
			err = w.Close()
		}
	}
	if err == nil && buf.Len() < len(payload)+1 {
		return buf.Bytes()
	}
	out := make([]byte, 1+len(payload))
	out[0] = tagRaw
	copy(out[1:], payload)
	return out
}

// Decode reverses Encode.
func Decode(framed []byte) ([]byte, error) {
	if len(framed) == 0 {
		return nil, fmt.Errorf("%w: empty", ErrCorrupt)
	}
	body := framed[1:]
	switch framed[0] {
	case tagRaw:
		return append([]byte(nil), body...), nil
	case tagZlib:
		r := flate.NewReader(bytes.NewReader(body))
		defer r.Close()
		out, err := io.ReadAll(io.LimitReader(r, maxDecoded+1))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if len(out) > maxDecoded {
			return nil, fmt.Errorf("%w: decompressed payload too large", ErrCorrupt)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: unknown tag %d", ErrCorrupt, framed[0])
	}
}
