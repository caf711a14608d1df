package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/graph"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// ArrivalSource yields a run's calls one at a time in arrival order. It is
// the streaming counterpart of a materialized Trace: Run consumes either
// interchangeably, and the two produce bit-identical results for the same
// (matrix, horizon, seed) because a Trace is just a drained source.
type ArrivalSource interface {
	// Next returns the next call in arrival order, or ok=false when the
	// source is exhausted.
	Next() (c Call, ok bool)
	// Horizon is the generation horizon: arrivals cover [0, Horizon).
	Horizon() float64
	// Seed is the master seed the arrivals derive from (for run markers).
	Seed() int64
}

// traceCursor adapts a materialized Trace to ArrivalSource.
type traceCursor struct {
	t *Trace
	i int
}

func (c *traceCursor) Next() (Call, bool) {
	if c.i >= len(c.t.Calls) {
		return Call{}, false
	}
	call := c.t.Calls[c.i]
	c.i++
	return call, true
}

func (c *traceCursor) Horizon() float64 { return c.t.Horizon }
func (c *traceCursor) Seed() int64      { return c.t.Seed }

// Source returns the trace as an ArrivalSource (a fresh cursor per call).
func (t *Trace) Source() ArrivalSource { return &traceCursor{t: t} }

// pairStream is one O-D pair's Poisson arrival process. Its pending
// arrival epoch lives in the pair's merge-heap key, not here.
type pairStream struct {
	rate         float64
	origin, dest graph.NodeID
	// ar draws inter-arrival times; hr, when non-nil, draws holding times
	// from an independent substream (the selectable-distribution layout of
	// GenerateTraceHolding). When hr is nil holdings come from ar, exactly
	// reproducing GenerateTrace's single-stream draw order.
	ar, hr *rand.Rand
	dist   HoldingDist
}

// mergeKey is one pair's entry on the merge heap: its pending arrival
// epoch (always < horizon while the pair is on the heap) and its index in
// Stream.pairs. Keys are ordered by (next, idx); the epoch sits inline so
// a sift compares without touching pairs.
type mergeKey struct {
	next float64
	idx  int32
}

// less is the merge order: epoch first, then pair index. Pair indices
// follow (origin, dest) order — newStream appends pairs in that order and
// Split preserves parent order — so this is the (epoch, origin, dest)
// order the trace sort uses.
func (a mergeKey) less(b mergeKey) bool {
	return a.next < b.next || (!(b.next < a.next) && a.idx < b.idx)
}

// Stream merges every O-D pair's Poisson process lazily: it keeps one
// pending arrival per pair on a min-heap of mergeKeys and draws further
// variates only as calls are consumed. Memory is O(pairs) instead of the
// O(calls) of a materialized Trace. Next emits calls in (epoch, origin,
// dest) order, a pair's equal epochs in draw order; the keys form a strict
// total order (no two pairs share an index), so the emission order does not
// depend on the heap's layout. Materialize produces the same sequence
// without the heap, and GenerateTrace (or GenerateTraceHolding) is
// Materialize on a fresh stream, so a Next drain and the trace for the same
// arguments agree byte for byte: epochs, holding times, IDs and tie order.
type Stream struct {
	pairs   []pairStream
	heap    []mergeKey
	horizon float64
	seed    int64
	emitted int // next call ID
}

// NewStream returns the streaming equivalent of GenerateTrace(m, horizon,
// seed): identical call sequence, O(pairs) memory.
func NewStream(m *traffic.Matrix, horizon float64, seed int64) (*Stream, error) {
	return newStream(m, horizon, seed, HoldingExponential, false)
}

// NewStreamHolding returns the streaming equivalent of
// GenerateTraceHolding(m, horizon, seed, dist).
func NewStreamHolding(m *traffic.Matrix, horizon float64, seed int64, dist HoldingDist) (*Stream, error) {
	return newStream(m, horizon, seed, dist, true)
}

func newStream(m *traffic.Matrix, horizon float64, seed int64, dist HoldingDist, dual bool) (*Stream, error) {
	if !(horizon > 0) || math.IsInf(horizon, 1) {
		return nil, fmt.Errorf("sim: horizon %v", horizon)
	}
	n := m.Size()
	s := &Stream{horizon: horizon, seed: seed}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			rate := m.Demand(graph.NodeID(i), graph.NodeID(j))
			if rate <= 0 {
				continue
			}
			ps := pairStream{
				rate:   rate,
				origin: graph.NodeID(i),
				dest:   graph.NodeID(j),
				dist:   dist,
			}
			if dual {
				ps.ar = xrand.New(seed, int64(i), int64(j), 1)
				ps.hr = xrand.New(seed, int64(i), int64(j), 2)
			} else {
				ps.ar = xrand.New(seed, int64(i), int64(j))
			}
			// The first inter-arrival draw happens eagerly, exactly as the
			// materializing generator's loop does before its horizon check.
			next := xrand.Exp(ps.ar, 1/rate)
			if next >= horizon {
				continue
			}
			s.pairs = append(s.pairs, ps)
			s.heapPush(mergeKey{next: next, idx: int32(len(s.pairs) - 1)})
		}
	}
	return s, nil
}

// Next implements ArrivalSource.
func (s *Stream) Next() (Call, bool) {
	if len(s.heap) == 0 {
		return Call{}, false
	}
	top := s.heap[0]
	p := &s.pairs[top.idx]
	c := Call{
		ID:      s.emitted,
		Origin:  p.origin,
		Dest:    p.dest,
		Arrival: top.next,
	}
	s.emitted++
	// Draw order per pair matches the materializing generators: the holding
	// time of the emitted call, then the increment to the pair's next
	// arrival.
	if p.hr != nil {
		c.Holding = p.dist.draw(p.hr)
	} else {
		c.Holding = xrand.Exp(p.ar, 1)
	}
	top.next += xrand.Exp(p.ar, 1/p.rate)
	if top.next >= s.horizon {
		// Pair exhausted: remove it from the merge heap.
		last := len(s.heap) - 1
		k := s.heap[last]
		s.heap = s.heap[:last]
		if last > 0 {
			s.heapDown(k)
		}
	} else {
		s.heapDown(top)
	}
	return c, true
}

// Horizon implements ArrivalSource.
func (s *Stream) Horizon() float64 { return s.horizon }

// Seed implements ArrivalSource.
func (s *Stream) Seed() int64 { return s.seed }

// Peek returns the epoch and pair of the next call Next would emit,
// without consuming it.
func (s *Stream) Peek() (at float64, origin, dest graph.NodeID, ok bool) {
	if len(s.heap) == 0 {
		return 0, 0, 0, false
	}
	top := s.heap[0]
	p := &s.pairs[top.idx]
	return top.next, p.origin, p.dest, true
}

// Split partitions a fresh stream's O-D pairs into k substreams by the
// given classifier (which must return a bucket in [0, k) for every pair
// the stream carries). Each pair moves — with its pending arrival and its
// private rand substreams — into exactly one bucket, so every substream
// emits precisely the calls of its pairs with the same epochs, holding
// times, and relative order the parent would have emitted them in; only
// the call IDs differ (each substream numbers its own calls from zero).
// The sharded engine uses this for arrival generation without cross-shard
// coordination: per-pair substreams are independent by construction.
//
// The parent stream must not have emitted any call yet and must not be
// used again after the split.
func (s *Stream) Split(k int, class func(origin, dest graph.NodeID) int) ([]*Stream, error) {
	if s.emitted != 0 {
		return nil, fmt.Errorf("sim: cannot split a stream after %d calls were emitted", s.emitted)
	}
	out := make([]*Stream, k)
	for b := range out {
		out[b] = &Stream{horizon: s.horizon, seed: s.seed}
	}
	// Pairs move in parent index order, so each substream's pairs stay in
	// (origin, dest) order and its (epoch, index) heap order still breaks
	// ties the way the trace sort does.
	next := make([]float64, len(s.pairs))
	for _, key := range s.heap {
		next[key.idx] = key.next
	}
	for i := range s.pairs {
		p := &s.pairs[i]
		b := class(p.origin, p.dest)
		if b < 0 || b >= k {
			return nil, fmt.Errorf("sim: split class %d for pair %d→%d outside [0,%d)", b, p.origin, p.dest, k)
		}
		t := out[b]
		t.pairs = append(t.pairs, *p)
		t.heapPush(mergeKey{next: next[i], idx: int32(len(t.pairs) - 1)})
	}
	s.pairs, s.heap = nil, nil
	return out, nil
}

// Materialize drains the rest of the stream into a Trace: exactly the
// calls Next would still emit, in the same order, with IDs continuing
// from the calls already emitted. GenerateTrace and GenerateTraceHolding
// are Materialize on a fresh stream. It does not merge through the heap:
// it draws each pending pair's remaining calls in one pass, appends them
// pair-major, and orders them with orderArrivals.
func (s *Stream) Materialize() *Trace {
	calls := make([]Call, 0, s.expectedCalls())
	// The heap holds each pending pair's next epoch; pairs off it are
	// exhausted. Materialize empties the heap, so it may reorder it:
	// sorted by pair index, its keys list the pending pairs pair-major.
	slices.SortFunc(s.heap, func(a, b mergeKey) int { return cmp.Compare(a.idx, b.idx) })
	for _, k := range s.heap {
		calls = s.pairs[k.idx].drawTo(calls, k.next, s.horizon)
	}
	s.heap = s.heap[:0]
	orderArrivals(calls, s.horizon, s.emitted)
	s.emitted += len(calls)
	return &Trace{Calls: calls, Horizon: s.horizon, Seed: s.seed}
}

// drawTo appends the pair's calls arriving from its pending epoch t up to
// horizon, drawing per call what Next draws: the holding time, then the
// increment to the next arrival.
func (p *pairStream) drawTo(calls []Call, t, horizon float64) []Call {
	mean := 1 / p.rate
	for t < horizon {
		c := Call{Origin: p.origin, Dest: p.dest, Arrival: t}
		if p.hr != nil {
			c.Holding = p.dist.draw(p.hr)
		} else {
			c.Holding = xrand.Exp(p.ar, 1)
		}
		calls = append(calls, c)
		t += xrand.Exp(p.ar, mean)
	}
	return calls
}

// maxCallsHint caps expectedCalls: a larger trace grows its slice as it
// is drawn instead of reserving it up front.
const maxCallsHint = 1 << 24

// expectedCalls sizes Materialize's slice. Each pending pair emits its
// pending arrival plus a Poisson number more, of mean rate·(horizon −
// next), so the remaining count is len(heap) plus a Poisson variable of
// mean and variance μ = Σ rate·(horizon − next). Four standard deviations
// of headroom make growing the slice — a copy of everything drawn so far
// — rare. μ can exceed the int range or be +Inf at absurd rates, so the
// hint is clamped to maxCallsHint.
func (s *Stream) expectedCalls() int {
	mu := 0.0
	for _, k := range s.heap {
		mu += s.pairs[k.idx].rate * (s.horizon - k.next)
	}
	hint := mu + 4*math.Sqrt(mu)
	if !(hint < maxCallsHint) {
		hint = maxCallsHint
	}
	return len(s.heap) + int(hint) + 16
}

// heapPush adds a key (container/heap's up, hole form).
//
//altlint:hotpath
func (s *Stream) heapPush(k mergeKey) {
	s.heap = append(s.heap, k)
	h := s.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.less(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = k
}

// heapDown places k into the hole at the root, moving smaller children
// up (container/heap's down, hole form). Unlike the departure heap's,
// this sift stays top-down: a bottom-up form measured slower here.
//
//altlint:hotpath
func (s *Stream) heapDown(k mergeKey) {
	h := s.heap
	n := len(h)
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		c := h[j]
		if j+1 < n && h[j+1].less(c) {
			j++
			c = h[j]
		}
		if !c.less(k) {
			break
		}
		h[i] = c
		i = j
	}
	h[i] = k
}
