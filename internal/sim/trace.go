// Package sim is the call-by-call event-driven simulator used for every
// experiment in the paper's §4: Poisson call arrivals per O-D pair,
// exponentially distributed unit-mean holding times, admission control with
// state protection on each link, warm-up discarding, and per-pair/per-link
// accounting. Traces are generated once per (seed, load) and replayed
// against every routing policy (common random numbers), exactly as the paper
// prescribes.
package sim

import (
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/traffic"
)

// Call is one point-to-point call request (§2: origin, destination, and an
// identical unit bandwidth demand for all calls in this preliminary study).
type Call struct {
	// ID is the call's index in its trace; policies may use it for
	// deterministic per-call choices shared across policies.
	ID int
	// Origin and Dest identify the ordered O-D pair.
	Origin, Dest graph.NodeID
	// Arrival is the arrival epoch; Holding the call duration (mean 1).
	Arrival, Holding float64
}

// Trace is an immutable arrival sequence sorted by arrival time.
//
// The first plan-less compiled replay ranks the trace's departures by
// epoch and caches the ranking on the Trace, so every later replay at the
// same horizon (every policy of a common-random-numbers comparison) skips
// the sort. The ranking costs 12 bytes per call departing inside the run
// and lives as long as the Trace. It is keyed on the Calls slice (its
// first element and length) and the run horizon: assigning a new slice
// to Calls, or replaying to another horizon, ranks again. Editing the
// elements of Calls in place after the first replay is not detected and
// leaves a stale ranking, so Calls must not change once replayed; copy
// the slice to edit it. Concurrent replays of one Trace are safe.
type Trace struct {
	Calls []Call
	// Horizon is the generation horizon: arrivals cover [0, Horizon).
	Horizon float64
	// Seed is the master seed the trace was derived from.
	Seed int64

	// ranked is the cached departure ranking (see Trace.ranking).
	ranked atomic.Pointer[traceRank]
}

// GenerateTrace draws Poisson arrivals for every O-D pair with rates given
// by the traffic matrix (Erlangs = arrivals per unit time, since holding
// times have unit mean) over [0, horizon), with exponential unit-mean
// holding times. Each pair uses an independent substream keyed by (seed,
// origin, dest), so the same (matrix, seed) always reproduces the same
// trace, and scaling the matrix changes rates without perturbing unrelated
// pairs' substreams.
//
// GenerateTrace materializes the whole arrival sequence with
// Stream.Materialize on a fresh NewStream, which yields exactly the calls
// a Next drain of that stream would, so replaying a trace and consuming
// the stream directly are bit-identical. Prefer the streaming source
// (Config.Source) for long horizons where O(calls) memory matters.
func GenerateTrace(m *traffic.Matrix, horizon float64, seed int64) *Trace {
	s, err := NewStream(m, horizon, seed)
	if err != nil {
		panic(err)
	}
	return s.Materialize()
}
