package sim

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/paths"
)

// depOrder is a trace replay's departure queue when the order of every
// departure is fixed before the run starts. In a loss network an
// admitted call leaves at Arrival + Holding whatever route it took, so a
// replayed trace determines the departure sequence; the policy only
// decides which calls are booked. buildOrder ranks the offered calls by
// that epoch once, admission writes the booked route row into the call's
// slot, and the drains advance a cursor over the ranks, skipping calls
// that were blocked. Pops cost O(1) instead of the heap's O(log
// in-flight) sift.
//
// The order is used only when it is provably the departure heap's pop
// order (see buildOrder), so results and event streams are bit-identical
// to the heap engine's. It costs 8 bytes per offered call, ord (4) and
// slot (4): epochs are recomputed from the trace with the expression the
// heap is pushed with, and the sort's bucket offsets live in slot.
type depOrder struct {
	// calls is the replayed trace the epochs are read from.
	calls []Call
	// ord lists call indices by rank: ascending distinct epochs up to
	// the last epoch at or before the horizon, then the later ones in
	// call order (they never depart inside the run).
	ord []int32
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

// Slot markers for calls that release no route-table row.
const (
	slotUnbooked int32 = -1
	slotEmpty    int32 = -2
)

// orderPool recycles depOrder buffers across runs, so back-to-back
// replays do not allocate and zero them each time. A reused buffer's
// contents never leak into a run: buildOrder writes every element a run
// reads.
var orderPool sync.Pool // of *depOrder

// orderHook, when non-nil, observes whether each sequential compiled run
// took its departures from a precomputed order; tests use it to assert
// which path ran.
var orderHook func(ordered bool)

// epochOf is a call's departure epoch, computed exactly as the departure
// heap is pushed with it.
func epochOf(c *Call) float64 { return c.Arrival + c.Holding }

// buildOrder ranks the departure epochs of the calls the run will offer
// (the prefix of calls arriving before horizon) and returns the order, or
// nil when it may not replace the departure heap. It accepts only
// replays where
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
// horizon are never popped (no drain passes the horizon) and stay
// unsorted.
//
// The epochs at or before the horizon are bucket-sorted: one bucket per
// such epoch over [min, max], then an insertion pass that moves each
// epoch only within its bucket. Bucket indices are a monotone function of
// the epoch, so bucket order is epoch order. The insertion pass gives up
// (the run keeps the heap) once its shifts exceed a fixed multiple of the
// call count, which bounds the build at O(calls) on any input.
func buildOrder(calls []Call, horizon float64, rowOff []int32, links []graph.LinkID) *depOrder {
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
			return nil
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
		return nil
	}
	scale := 0.0
	if m > 1 {
		scale = float64(m-1) / (hi - lo)
		if !(scale <= math.MaxFloat64) {
			// hi == lo (a tie) or a spread too narrow to bucket.
			return nil
		}
	}
	calls = calls[:n]

	o, _ := orderPool.Get().(*depOrder)
	if o == nil {
		o = new(depOrder)
	}
	if cap(o.ord) < n {
		o.ord, o.slot = make([]int32, n), make([]int32, n)
	}
	ord, slot := o.ord[:n], o.slot[:n]
	cnt := slot[:m]
	clear(cnt)
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
	// Pass 3: scatter the call indices into bucket order.
	tail := int32(m)
	for i := range calls {
		var p int32
		if d := epochOf(&calls[i]); d <= horizon {
			b := bucket(d)
			p = cnt[b]
			cnt[b]++
		} else {
			p = tail
			tail++
		}
		ord[p] = int32(i)
	}
	// Insertion pass within buckets; last is the largest epoch placed so
	// far (the one at ord[j-1]). A tie surfaces as an epoch equal to the
	// left neighbour it stops at.
	budget := 8 * n
	last := math.Inf(-1)
	for j := 0; j < m; j++ {
		xi := ord[j]
		x := epochOf(&calls[xi])
		if last < x {
			last = x
			continue
		}
		tie := !(last > x)
		k := j
		for !tie {
			ord[k] = ord[k-1]
			k--
			if k == 0 {
				break
			}
			if y := epochOf(&calls[ord[k-1]]); !(y > x) {
				tie = !(y < x)
				break
			}
		}
		ord[k] = xi
		if budget -= j - k; budget < 0 || tie {
			orderPool.Put(o)
			return nil
		}
	}
	for i := range slot {
		slot[i] = slotUnbooked
	}
	o.calls, o.ord, o.slot = calls, ord, slot
	o.next = 0
	o.rowOff, o.links = rowOff, links
	return o
}

// release returns the order's buffers to the pool once its run is done.
func (o *depOrder) release() {
	o.calls, o.rowOff, o.links = nil, nil, nil
	orderPool.Put(o)
}

// nextAt returns the epoch at the cursor, +Inf when every rank is done.
// The call there may be unbooked: the guard it feeds only triggers a
// drain, which skips such calls.
func (o *depOrder) nextAt() float64 {
	if o.next < len(o.ord) {
		return epochOf(&o.calls[o.ord[o.next]])
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
	for ; o.next < len(o.ord); o.next++ {
		i := o.ord[o.next]
		t := epochOf(&o.calls[i])
		if !(t <= epoch) {
			break
		}
		if row := o.slot[i]; row != slotUnbooked {
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
	calls, ord, slot := q.calls, q.ord, q.slot
	rowOff, base := q.rowOff, q.links
	occ := l.occ
	util := l.util[:len(occ)]
	lastF := l.last[:len(occ)]
	warm, hor := l.cfg.Warmup, l.horizon
	r := q.next
	for ; r < len(ord); r++ {
		i := ord[r]
		t := epochOf(&calls[i])
		if !(t <= epoch) {
			break
		}
		row := slot[i]
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

// panicIdleLink raises drainFast's (and State.Release's) idle-link panic.
// It is kept out of line so the cold path's allocation does not count
// against its hot-path caller.
//
//go:noinline
func panicIdleLink(id graph.LinkID) {
	panic(fmt.Errorf("sim: releasing idle link %d", id))
}
