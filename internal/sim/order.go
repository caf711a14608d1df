package sim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/paths"
)

// depOrder is a trace replay's departure queue when the order of every
// departure is fixed before the run starts. In a loss network an
// admitted call leaves at Arrival + Holding whatever route it took, so a
// replayed trace determines the departure sequence; the policy only
// decides which calls are booked. The trace's ranking (traceRank) lists
// the calls by that epoch once per trace, admission writes the booked
// route row into the call's slot, and the drains advance a cursor over
// the ranks, skipping calls that were blocked. Pops cost O(1) instead of
// the heap's O(log in-flight) sift.
//
// The order is used only when it is provably the departure heap's pop
// order (see buildRank), so results and event streams are bit-identical
// to the heap engine's. A run owns only its slots, 4 bytes per offered
// call; the ranking is shared by every run of the trace.
type depOrder struct {
	// ord and at are the trace's ranking (traceRank.ord and .at), read
	// only.
	ord []int32
	at  []float64
	// slot holds, by call index, the booked call's route-table row,
	// slotUnbooked while the call is undecided or blocked, or slotEmpty
	// for a call carried on the zero-hop path.
	slot []int32
	// next is the cursor: every rank below it has departed or was skipped.
	next int
	// rowOff and links are the compiled table's row offsets and link
	// array the slots index (routetable.Flat.RowOff/Links).
	rowOff []int32
	links  []graph.LinkID
}

// traceRank is a trace's departure ranking at one run horizon, cached on
// the Trace (Trace.ranked) by the first plan-less compiled replay and
// shared read-only by every later one with the same key. A ranking that
// buildRank declined has nil ord and at (an accepted one with no
// departures inside the run has empty, non-nil ones), so such a trace
// keeps the heap without re-running the checks.
type traceRank struct {
	// first, calls and horizon are the key: the ranked Calls slice's
	// element 0 (nil when empty) and length, and the run horizon's bits.
	// Holding first keeps the ranked array alive, so a replacement slice
	// can never reuse its address.
	first   *Call
	calls   int
	horizon uint64
	// n is the number of offered calls (the prefix arriving before the
	// horizon); a run's slots are indexed by them.
	n int
	// ord lists by rank the indices of the calls departing at or before
	// the horizon, in ascending epoch order. Later calls never depart
	// inside the run and are not ranked.
	ord []int32
	// at holds the epochs by rank: at[r] is epochOf(&calls[ord[r]]).
	at []float64
}

// Slot markers for calls that release no route-table row.
const (
	slotUnbooked int32 = -1
	slotEmpty    int32 = -2
)

// orderPool recycles depOrder slot buffers across runs, so back-to-back
// replays do not allocate them each time. A reused buffer's contents
// never leak into a run: newDepOrder resets every slot the run reads.
var orderPool sync.Pool // of *depOrder

// orderHook, when non-nil, observes whether each sequential compiled run
// took its departures from a precomputed order; tests use it to assert
// which path ran.
var orderHook func(ordered bool)

// rankBuilds counts buildRank calls, so tests can assert when a trace is
// ranked and when its cached ranking is reused.
var rankBuilds atomic.Int64

// epochOf is a call's departure epoch, computed exactly as the departure
// heap is pushed with it.
func epochOf(c *Call) float64 { return c.Arrival + c.Holding }

// newDepOrder returns the departure order for a plan-less compiled replay
// of tr to horizon, or nil when the run must keep the departure heap.
// rowOff and links are the compiled table the run books rows from.
func newDepOrder(tr *Trace, horizon float64, rowOff []int32, links []graph.LinkID) *depOrder {
	o, _ := orderPool.Get().(*depOrder)
	if o == nil {
		o = new(depOrder)
	}
	rk := tr.ranking(horizon, &o.slot)
	if rk.ord == nil {
		orderPool.Put(o)
		return nil
	}
	if cap(o.slot) < rk.n {
		o.slot = make([]int32, rk.n)
	}
	slot := o.slot[:rk.n]
	for i := range slot {
		slot[i] = slotUnbooked
	}
	o.ord, o.at, o.slot = rk.ord, rk.at, slot
	o.next = 0
	o.rowOff, o.links = rowOff, links
	return o
}

// ranking returns the trace's departure ranking at horizon: the cached
// one when its key matches the current Calls slice and horizon, else a
// fresh buildRank, which is then published for later replays. Concurrent
// replays that miss together each build the same ranking, and the last
// to publish wins. scratch is a buffer the build may grow and use for
// bucket offsets.
func (tr *Trace) ranking(horizon float64, scratch *[]int32) *traceRank {
	calls := tr.Calls
	rk := tr.ranked.Load()
	if rk == nil || rk.first != firstCall(calls) || rk.calls != len(calls) || rk.horizon != math.Float64bits(horizon) {
		rk = buildRank(calls, horizon, scratch)
		tr.ranked.Store(rk)
	}
	return rk
}

// firstCall is the address of calls[0], nil for an empty slice.
func firstCall(calls []Call) *Call {
	if len(calls) == 0 {
		return nil
	}
	return &calls[0]
}

// buildRank ranks the departure epochs of the calls a run to horizon
// will offer (the prefix of calls arriving before horizon). The returned
// ranking has nil ord when it may not replace the departure heap. It
// accepts only replays where
//
//   - arrivals are non-decreasing,
//   - every epoch Arrival + Holding is finite and strictly after its
//     arrival, and
//   - the epochs at or before the horizon are pairwise distinct.
//
// The first two make skipping unbooked slots exact: when a drain to epoch
// E passes a rank, that call arrived strictly before E, and every drain
// happens before the admission of the arrival at E, so the call has
// already been admitted or blocked. Distinct epochs make the heap's pop
// order unique, so the ranks reproduce it bit for bit. Epochs after the
// horizon are never popped (no drain passes the horizon) and are not
// ranked.
//
// The epochs at or before the horizon are bucket-sorted: one bucket per
// such epoch over [min, max], then an insertion pass that moves each
// epoch only within its bucket. Bucket indices are a monotone function of
// the epoch, so bucket order is epoch order. The insertion pass gives up
// (the run keeps the heap) once its shifts exceed a fixed multiple of the
// call count, which bounds the build at O(calls) on any input. The
// bucket offsets live in *scratch, grown to the offered call count.
func buildRank(calls []Call, horizon float64, scratch *[]int32) *traceRank {
	rankBuilds.Add(1)
	rk := &traceRank{first: firstCall(calls), calls: len(calls), horizon: math.Float64bits(horizon)}
	// Pass 1: validate the offered prefix and find the range of the
	// epochs that can depart inside the run.
	n, m := 0, 0
	prev := math.Inf(-1)
	lo, hi := math.Inf(1), math.Inf(-1)
	for ; n < len(calls); n++ {
		a := calls[n].Arrival
		if a >= horizon {
			break
		}
		d := epochOf(&calls[n])
		if !(prev <= a) || !(d > a) || d > math.MaxFloat64 {
			return rk
		}
		prev = a
		if d <= horizon {
			m++
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
	}
	if n == 0 || n > math.MaxInt32 {
		return rk
	}
	scale := 0.0
	if m > 1 {
		scale = float64(m-1) / (hi - lo)
		if !(scale <= math.MaxFloat64) {
			// hi == lo (a tie) or a spread too narrow to bucket.
			return rk
		}
	}
	calls = calls[:n]

	if cap(*scratch) < n {
		*scratch = make([]int32, n)
	}
	cnt := (*scratch)[:m]
	clear(cnt)
	ord, at := make([]int32, m), make([]float64, m)
	// bucket is monotone in d: the subtraction, the positive scale and
	// the truncation each preserve order.
	bucket := func(d float64) int {
		b := int((d - lo) * scale)
		if uint(b) >= uint(m) {
			b = m - 1
		}
		return b
	}
	// Pass 2: bucket sizes, turned into start offsets.
	for i := range calls {
		if d := epochOf(&calls[i]); d <= horizon {
			cnt[bucket(d)]++
		}
	}
	var start int32
	for b, c := range cnt {
		cnt[b] = start
		start += c
	}
	// Pass 3: scatter the ranked calls and their epochs into bucket
	// order.
	for i := range calls {
		if d := epochOf(&calls[i]); d <= horizon {
			b := bucket(d)
			p := cnt[b]
			cnt[b]++
			ord[p], at[p] = int32(i), d
		}
	}
	// Insertion pass within buckets; last is the largest epoch placed so
	// far (the one at at[j-1]). A tie surfaces as an epoch equal to the
	// left neighbour it stops at.
	budget := 8 * n
	last := math.Inf(-1)
	for j := 0; j < m; j++ {
		x := at[j]
		if last < x {
			last = x
			continue
		}
		xi := ord[j]
		tie := !(last > x)
		k := j
		for !tie {
			ord[k], at[k] = ord[k-1], at[k-1]
			k--
			if k == 0 {
				break
			}
			if y := at[k-1]; !(y > x) {
				tie = !(y < x)
				break
			}
		}
		ord[k], at[k] = xi, x
		if budget -= j - k; budget < 0 || tie {
			return rk
		}
	}
	rk.n, rk.ord, rk.at = n, ord, at
	return rk
}

// release returns the order's slot buffer to the pool once its run is
// done.
func (o *depOrder) release() {
	o.ord, o.at, o.rowOff, o.links = nil, nil, nil, nil
	orderPool.Put(o)
}

// nextAt returns the epoch at the cursor, +Inf when every rank is done.
// The call there may be unbooked: the guard it feeds only triggers a
// drain, which skips such calls.
func (o *depOrder) nextAt() float64 {
	if o.next < len(o.at) {
		return o.at[o.next]
	}
	return math.Inf(1)
}

// path decodes a booked slot's route.
func (o *depOrder) path(row int32) paths.Path {
	if row == slotEmpty {
		return paths.Path{}
	}
	return paths.Path{Links: o.links[o.rowOff[row]:o.rowOff[row+1]]}
}

// drainOrdered is drainTo over a precomputed order: the same departures
// in the same sequence as popping the heap.
func (l *loop) drainOrdered(epoch float64) {
	if !l.instrumented {
		l.drainOrderedFast(epoch)
		return
	}
	o := l.ord
	for ; o.next < len(o.at); o.next++ {
		t := o.at[o.next]
		if !(t <= epoch) {
			break
		}
		if row := o.slot[o.ord[o.next]]; row != slotUnbooked {
			l.departed(t, o.path(row))
		}
	}
}

// drainOrderedFast is drainFast over a precomputed order: the cursor
// replaces the heap pop, and the flush/release body is drainFast's,
// operation for operation. Zero-hop slots release nothing and are
// skipped with the unbooked ones. The idle-link guard panics through
// panicIdleLink, so the error's allocation stays off this function.
//
//altlint:hotpath
func (l *loop) drainOrderedFast(epoch float64) {
	q := l.ord
	at, slot := q.at, q.slot
	ord := q.ord[:len(at)]
	rowOff, base := q.rowOff, q.links
	occ := l.occ
	util := l.util[:len(occ)]
	lastF := l.last[:len(occ)]
	warm, hor := l.cfg.Warmup, l.horizon
	r := q.next
	for ; r < len(at); r++ {
		t := at[r]
		if !(t <= epoch) {
			break
		}
		row := slot[ord[r]]
		if row < 0 {
			continue
		}
		for _, id := range base[rowOff[row]:rowOff[row+1]] {
			lo := lastF[id]
			if lo < warm {
				lo = warm
			}
			hi := t
			if hi > hor {
				hi = hor
			}
			o := occ[id]
			if hi > lo && o != 0 {
				util[id] += (hi - lo) * float64(o)
			}
			lastF[id] = t
			if o <= 0 {
				panicIdleLink(id)
			}
			occ[id] = o - 1
		}
	}
	q.next = r
}

// panicIdleLink raises the idle-link panic of the departure drains
// (drainFast, drainOrderedFast) and of State.Release and ReleaseLink. It
// is kept out of line so the cold path's allocation does not count
// against its hot-path callers.
//
//go:noinline
func panicIdleLink(id graph.LinkID) {
	panic(fmt.Errorf("sim: releasing idle link %d", id))
}
