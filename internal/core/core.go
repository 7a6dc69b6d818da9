// Package core implements shadow processing itself — the paper's primary
// contribution: transferring file updates as differences against cached
// versions, with transparent fallback to full transfers.
//
// Both ends of the protocol share this logic. The client side answers a
// server Pull by choosing between a delta (when the requested base version
// is still retained and the delta is actually smaller) and a full copy. The
// server side applies whichever arrives to its cached base and verifies the
// result end-to-end via the checksums that travel inside the delta. The same
// machinery runs in reverse for job output (reverse shadow processing).
package core

import (
	"errors"
	"fmt"
	"time"

	"shadowedit/internal/compress"
	"shadowedit/internal/diff"
	"shadowedit/internal/vcs"
	"shadowedit/internal/wire"
)

// Clock abstracts a virtual (or real) clock that local computation is
// charged to. netsim.Host implements it.
type Clock interface {
	// Process advances the clock by the given compute duration.
	Process(d time.Duration)
}

// NopClock discards compute charges; useful outside simulations.
type NopClock struct{}

// Process implements Clock.
func (NopClock) Process(time.Duration) {}

// DiffCPUPerKB approximates the 1987-workstation cost of running the
// differential comparison over one kilobyte of file. The paper's measured
// times include this client-side processing; it is small relative to
// transmission on a 9600 bps line but not zero.
const DiffCPUPerKB = 2 * time.Millisecond

// ChargeDiffCost charges clock for diffing n bytes.
func ChargeDiffCost(clock Clock, n int) {
	if clock == nil {
		return
	}
	clock.Process(time.Duration(n/1024+1) * DiffCPUPerKB)
}

// Errors reported by transfer application.
var (
	// ErrStaleBase reports a delta whose base the receiver no longer has;
	// the receiver should request a full transfer.
	ErrStaleBase = errors.New("core: delta base not available")
	// ErrBadTransfer reports an undecodable or corrupt transfer.
	ErrBadTransfer = errors.New("core: bad transfer")
)

// AnswerPull builds the client's reply to a server Pull from the version
// store: a FileDelta from the server's base when possible and profitable, a
// FileFull otherwise. This is the decision at the heart of shadow editing —
// "the client may transmit a completely new version (if the specified
// version is not available for computing the differences), or the
// difference between the current version and the previous version specified
// by the server" (§6.3.2).
//
// The returned message is ready to send. AnswerPull fails only if even the
// full content is unavailable (the version store no longer retains the
// wanted version).
func AnswerPull(store *vcs.Store, pull *wire.Pull, algorithm diff.Algorithm, compressOn bool, clock Clock) (wire.Message, error) {
	// Shared (non-cloning) reads: the pull path only ever diffs, encodes
	// and frames the content, so the store's backing bytes are used directly
	// instead of paying a full copy per lookup. The reply aliases them: the
	// caller holds a store borrow until it is sent (vcs.Store.Borrow).
	want, err := store.GetShared(pull.File, pull.WantVersion)
	if err != nil {
		// The wanted version may itself have been superseded; fall
		// back to the head so the server converges on fresh content.
		head, ok := store.HeadShared(pull.File)
		if !ok {
			return nil, fmt.Errorf("answer pull for %s: %w", pull.File, err)
		}
		want = head
	}

	if pull.HaveVersion != 0 && pull.HaveVersion < want.Number {
		d, derr := store.DeltaFrom(pull.File, pull.HaveVersion, want.Number, algorithm)
		if derr == nil {
			ChargeDiffCost(clock, len(want.Content)+d.BaseLen)
			encoded := d.Encode()
			if compressOn {
				encoded = compress.Encode(encoded)
			}
			// A delta bigger than the file itself (wholesale
			// rewrite) loses; send full content instead.
			if len(encoded) < len(want.Content) {
				return &wire.FileDelta{
					File:        pull.File,
					BaseVersion: pull.HaveVersion,
					Version:     want.Number,
					Encoded:     encoded,
					Compressed:  compressOn,
				}, nil
			}
		} else if !errors.Is(derr, vcs.ErrVersionGone) {
			return nil, fmt.Errorf("answer pull for %s: %w", pull.File, derr)
		}
		// ErrVersionGone: the base was pruned before the server asked;
		// best-effort semantics fall through to a full transfer.
	}

	content := want.Content
	if compressOn {
		content = compress.Encode(content)
	}
	return &wire.FileFull{
		File:       pull.File,
		Version:    want.Number,
		Content:    content,
		Sum:        want.Sum,
		Compressed: compressOn,
	}, nil
}

// ApplyDelta upgrades base content using an arriving FileDelta, verifying
// checksums end to end. ErrStaleBase signals the receiver to request a full
// transfer instead (its cached base no longer matches). The output is a fresh
// buffer that aliases neither base nor fd.
func ApplyDelta(base []byte, fd *wire.FileDelta) ([]byte, error) {
	d, err := DecodeDelta(fd)
	if err != nil {
		return nil, err
	}
	out, _, err := d.ApplySpans(base)
	if err != nil {
		return nil, DeltaError(fd, err)
	}
	return out, nil
}

// DecodeDelta unwraps the delta an arriving FileDelta carries, decompressing
// it first when it travelled compressed: the half of ApplyDelta that needs no
// base, for a receiver that applies the delta itself (the server reads its
// base in place, see diff.Delta.ApplyInPlace).
func DecodeDelta(fd *wire.FileDelta) (*diff.Delta, error) {
	encoded := fd.Encoded
	if fd.Compressed {
		var err error
		encoded, err = compress.Decode(encoded)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadTransfer, err)
		}
	}
	d, err := diff.Decode(encoded)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTransfer, err)
	}
	return d, nil
}

// DeltaError maps a failure to apply fd's delta to the arrival path's
// errors: ErrStaleBase for a base the delta does not fit, ErrBadTransfer for
// anything else.
func DeltaError(fd *wire.FileDelta, err error) error {
	if errors.Is(err, diff.ErrBaseMismatch) {
		return fmt.Errorf("%w: %s base v%d", ErrStaleBase, fd.File, fd.BaseVersion)
	}
	return fmt.Errorf("%w: %v", ErrBadTransfer, err)
}

// ApplyFull unwraps an arriving FileFull and verifies its checksum.
func ApplyFull(ff *wire.FileFull) ([]byte, error) {
	content := ff.Content
	if ff.Compressed {
		var err error
		content, err = compress.Decode(content)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadTransfer, err)
		}
	}
	if diff.Checksum(content) != ff.Sum {
		return nil, fmt.Errorf("%w: %s v%d checksum mismatch", ErrBadTransfer, ff.File, ff.Version)
	}
	return content, nil
}

// OutputTransfer decides how to ship job output: as a delta against the
// previously delivered output when the receiver still holds it and the delta
// wins, as full bytes otherwise. This is reverse shadow processing (§8.3):
// "cache the output on supercomputer, and, next time the same job is run,
// send the differences between the current output and the previous output".
func OutputTransfer(prevDelivered, current []byte, algorithm diff.Algorithm, compressOn bool, clock Clock) (mode wire.OutputMode, payload []byte, err error) {
	full := current
	if compressOn {
		full = compress.Encode(full)
	}
	if len(prevDelivered) == 0 {
		return wire.OutputFull, full, nil
	}
	d, err := diff.Compute(algorithm, prevDelivered, current)
	if err != nil {
		return 0, nil, err
	}
	ChargeDiffCost(clock, len(prevDelivered)+len(current))
	encoded := d.Encode()
	if compressOn {
		encoded = compress.Encode(encoded)
	}
	if len(encoded) < len(full) {
		return wire.OutputDelta, encoded, nil
	}
	return wire.OutputFull, full, nil
}

// ApplyOutput reverses OutputTransfer at the receiving end.
func ApplyOutput(mode wire.OutputMode, payload, prevDelivered []byte, compressed bool) ([]byte, error) {
	switch mode {
	case wire.OutputFull:
		out := payload
		if compressed {
			var err error
			out, err = compress.Decode(out)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadTransfer, err)
			}
		}
		return out, nil
	case wire.OutputDelta:
		fd := &wire.FileDelta{Encoded: payload, Compressed: compressed}
		out, err := ApplyDelta(prevDelivered, fd)
		if err != nil {
			return nil, err
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: unknown output mode %d", ErrBadTransfer, mode)
	}
}
