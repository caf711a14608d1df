package sim

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
)

// ErrMalformedTrace reports a trace file that decodes but violates the
// trace invariants: a non-finite or non-positive horizon, call IDs out of
// sequence, unsorted arrivals, or a call whose arrival lies outside
// [0, horizon), whose holding time is not finite and positive, or whose
// endpoints are negative or equal.
var ErrMalformedTrace = errors.New("sim: malformed trace")

// Trace file magics guard against feeding arbitrary gob streams to
// ReadTrace. v1 files are magic + payload; v2 files carry an explicit
// integer version between magic and payload, so future payload changes bump
// traceFileVersion without inventing yet another magic, and old readers
// reject newer files with a clear error instead of a gob mismatch.
const (
	traceFileMagicV1 = "altroute-trace-v1"
	traceFileMagic   = "altroute-trace-v2"
	traceFileVersion = 2
)

// Encode serializes the trace with encoding/gob (magic header + version +
// payload), so expensive traces can be generated once and replayed by
// external tools or across processes.
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := gob.NewEncoder(bw)
	if err := enc.Encode(traceFileMagic); err != nil {
		return fmt.Errorf("sim: writing trace header: %w", err)
	}
	if err := enc.Encode(traceFileVersion); err != nil {
		return fmt.Errorf("sim: writing trace version: %w", err)
	}
	if err := enc.Encode(t); err != nil {
		return fmt.Errorf("sim: writing trace: %w", err)
	}
	return bw.Flush()
}

// ReadTrace deserializes a trace written by Encode — either the legacy v1
// layout or the versioned v2 layout — and validates its structural
// invariants (finite values, sorted arrivals, contiguous IDs, positive
// holdings); a trace that violates them is rejected with an error
// wrapping ErrMalformedTrace.
func ReadTrace(r io.Reader) (*Trace, error) {
	dec := gob.NewDecoder(bufio.NewReader(r))
	var magic string
	if err := dec.Decode(&magic); err != nil {
		return nil, fmt.Errorf("sim: reading trace header: %w", err)
	}
	switch magic {
	case traceFileMagicV1:
		// Legacy layout: payload follows the magic directly.
	case traceFileMagic:
		var version int
		if err := dec.Decode(&version); err != nil {
			return nil, fmt.Errorf("sim: reading trace version: %w", err)
		}
		if version != traceFileVersion {
			return nil, fmt.Errorf("sim: trace version %d not supported (this reader handles up to %d)",
				version, traceFileVersion)
		}
	default:
		return nil, fmt.Errorf("sim: not a trace file (header %q)", magic)
	}
	var t Trace
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("sim: reading trace: %w", err)
	}
	// Every comparison is written so that NaN fails it: a NaN epoch would
	// slip past `x < bound` checks and then corrupt the departure heap.
	if !(t.Horizon > 0) || math.IsInf(t.Horizon, 1) {
		return nil, fmt.Errorf("%w: horizon %v", ErrMalformedTrace, t.Horizon)
	}
	prev := 0.0
	for i, c := range t.Calls {
		if c.ID != i {
			return nil, fmt.Errorf("%w: call %d has ID %d", ErrMalformedTrace, i, c.ID)
		}
		if !(c.Holding > 0) || math.IsInf(c.Holding, 1) || !(c.Arrival >= 0 && c.Arrival < t.Horizon) ||
			c.Origin < 0 || c.Dest < 0 || c.Origin == c.Dest {
			return nil, fmt.Errorf("%w: call %d: %+v", ErrMalformedTrace, i, c)
		}
		if c.Arrival < prev {
			return nil, fmt.Errorf("%w: not sorted at call %d", ErrMalformedTrace, i)
		}
		prev = c.Arrival
	}
	return &t, nil
}
