package sim

import (
	"container/heap"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/paths"
)

// refDep is one entry of the container/heap reference departure queue:
// the epoch and the identity of the scheduled teardown.
type refDep struct {
	at float64
	id int
}

type refDepHeap []refDep

func (h refDepHeap) Len() int           { return len(h) }
func (h refDepHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h refDepHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refDepHeap) Push(x any)        { *h = append(*h, x.(refDep)) }
func (h *refDepHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// depID names a departure by its path's first link: row entries point at
// base[off], whose link id is off; pooled paths carry a single link whose
// id is the test's own call id.
func depID(p paths.Path) int { return int(p.Links[0]) }

// requireSameLayout fails unless the heap array and the reference array
// hold the same (epoch, id) sequence.
func requireSameLayout(t *testing.T, step int, h *departureHeap, ref refDepHeap) {
	t.Helper()
	if len(h.ents) != len(ref) {
		t.Fatalf("step %d: %d entries, reference has %d", step, len(h.ents), len(ref))
	}
	for i, e := range h.ents {
		if e.at != ref[i].at || depID(h.path(e)) != ref[i].id {
			t.Fatalf("step %d: slot %d holds (%v, %d), reference (%v, %d)",
				step, i, e.at, depID(h.path(e)), ref[i].at, ref[i].id)
		}
	}
}

// TestDepartureHeapMatchesContainerHeap drives departureHeap and a
// container/heap reference through the same random push/pop/extract
// sequence over heavily duplicated epochs. Pop order and the full array
// layout must agree after every operation: the bottom-up sift promises
// container/heap's layout exactly, equal-epoch ties included.
func TestDepartureHeapMatchesContainerHeap(t *testing.T) {
	const rowIDs = 1 << 12
	base := make([]graph.LinkID, rowIDs+1)
	for i := range base {
		base[i] = graph.LinkID(i)
	}
	for _, pooled := range []bool{false, true} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			h := &departureHeap{base: base, needMeta: pooled}
			var ref refDepHeap
			// Few distinct epochs force long runs of equal keys.
			distinct := 1 + rng.Intn(12)
			next := rowIDs
			for step := 0; step < 3000; step++ {
				switch r := rng.Intn(100); {
				case r < 55 || len(ref) == 0:
					at := float64(rng.Intn(distinct)) / 4
					var id int
					if pooled && rng.Intn(2) == 0 {
						id = next
						next++
						h.push(at, paths.Path{Links: []graph.LinkID{graph.LinkID(id)}}, depMeta{id: int64(id)})
					} else {
						id = rng.Intn(rowIDs)
						h.pushRow(at, int32(id), 1, depMeta{id: int64(id)})
					}
					heap.Push(&ref, refDep{at: at, id: id})
				case r < 97 || !pooled:
					at, p := h.pop()
					want := heap.Pop(&ref).(refDep)
					if at != want.at || depID(p) != want.id {
						t.Fatalf("pooled=%v seed %d step %d: popped (%v, %d), reference (%v, %d)",
							pooled, seed, step, at, depID(p), want.at, want.id)
					}
				default:
					// Extraction (failure runs only, hence pooled): drop
					// every id divisible by k, keep survivors in array
					// order, re-heapify.
					k := 2 + rng.Intn(4)
					got := h.extract(func(p paths.Path) bool { return depID(p)%k == 0 })
					var want []refDep
					kept := ref[:0]
					for _, d := range ref {
						if d.id%k == 0 {
							want = append(want, d)
						} else {
							kept = append(kept, d)
						}
					}
					ref = kept
					if len(want) > 0 {
						heap.Init(&ref)
					}
					if len(got) != len(want) {
						t.Fatalf("seed %d step %d: extracted %d, reference %d", seed, step, len(got), len(want))
					}
					for i, td := range got {
						if td.at != want[i].at || depID(td.path) != want[i].id {
							t.Fatalf("seed %d step %d: extracted #%d (%v, %d), reference (%v, %d)",
								seed, step, i, td.at, depID(td.path), want[i].at, want[i].id)
						}
					}
				}
				requireSameLayout(t, step, h, ref)
			}
		}
	}
}

// refKey is one pending arrival in the container/heap reference merge,
// ordered as the trace sort orders calls: (epoch, origin, dest).
type refKey struct {
	next         float64
	origin, dest graph.NodeID
	idx          int32
}

type refMergeHeap []refKey

func (h refMergeHeap) Len() int { return len(h) }
func (h refMergeHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.next != b.next {
		return a.next < b.next
	}
	if a.origin != b.origin {
		return a.origin < b.origin
	}
	return a.dest < b.dest
}
func (h refMergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refMergeHeap) Push(x any)   { *h = append(*h, x.(refKey)) }
func (h *refMergeHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestStreamMergeMatchesSortOrder drives the stream's merge heap and a
// container/heap reference ordered by (epoch, origin, dest) through the
// same replace-top/remove-top sequence over heavily tied epochs. The
// emission sequences must agree: pair indices follow (origin, dest) order,
// so the (epoch, index) key is the trace sort's order.
func TestStreamMergeMatchesSortOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		s := &Stream{}
		var ref refMergeHeap
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j || rng.Intn(4) == 0 {
					continue
				}
				s.pairs = append(s.pairs, pairStream{origin: graph.NodeID(i), dest: graph.NodeID(j)})
				k := mergeKey{next: float64(rng.Intn(5)), idx: int32(len(s.pairs) - 1)}
				s.heapPush(k)
				heap.Push(&ref, refKey{next: k.next, origin: graph.NodeID(i), dest: graph.NodeID(j), idx: k.idx})
			}
		}
		for step := 0; len(ref) > 0; step++ {
			if len(s.heap) != len(ref) {
				t.Fatalf("seed %d step %d: %d pending, reference %d", seed, step, len(s.heap), len(ref))
			}
			top, want := s.heap[0], ref[0]
			if top.next != want.next || top.idx != want.idx {
				p := s.pairs[top.idx]
				t.Fatalf("seed %d step %d: next is (%v, %d→%d), reference (%v, %d→%d)",
					seed, step, top.next, p.origin, p.dest, want.next, want.origin, want.dest)
			}
			// As Stream.Next: advance the emitted pair by a (often zero)
			// increment, or retire it.
			if rng.Intn(8) == 0 {
				last := s.heap[len(s.heap)-1]
				s.heap = s.heap[:len(s.heap)-1]
				if len(s.heap) > 0 {
					s.heapDown(last)
				}
				heap.Pop(&ref)
				continue
			}
			top.next += float64(rng.Intn(3))
			s.heapDown(top)
			ref[0].next = top.next
			heap.Fix(&ref, 0)
		}
	}
}
