// Package bound computes the Erlang Bound of §4: a lower bound on the
// overall network blocking probability of *any* routing scheme (even with
// re-packing), obtained by maximizing a two-term cut expression over all
// bipartitions of the node set.
//
// For a cut (S, S̄) the expression charges the traffic crossing the cut in
// each direction with the Erlang-B blocking of a single pooled link whose
// capacity is the total crossing capacity:
//
//	T(S→S̄)/T_tot · B(T(S→S̄), C(S→S̄)) + T(S̄→S)/T_tot · B(T(S̄→S), C(S̄→S))
//
// and the bound is the maximum over all cuts.
package bound

import (
	"fmt"

	"repro/internal/erlang"
	"repro/internal/graph"
	"repro/internal/traffic"
)

// Result reports the Erlang bound and the cut achieving it.
type Result struct {
	// Blocking is the lower bound on overall network blocking.
	Blocking float64
	// Cut is the maximizing bipartition.
	Cut graph.Cut
	// ForwardTraffic/BackwardTraffic are the crossing offered loads of the
	// maximizing cut (Erlangs); ForwardCapacity/BackwardCapacity the pooled
	// crossing capacities.
	ForwardTraffic, BackwardTraffic   float64
	ForwardCapacity, BackwardCapacity int
}

// ErlangBound evaluates the bound for the graph and traffic matrix by exact
// enumeration of all 2^(N−1)−1 bipartitions. It returns an error for empty
// traffic or graphs larger than the enumeration limit.
func ErlangBound(g *graph.Graph, m *traffic.Matrix) (Result, error) {
	if g.NumNodes() != m.Size() {
		return Result{}, fmt.Errorf("bound: matrix size %d for %d nodes", m.Size(), g.NumNodes())
	}
	if g.NumNodes() > 30 {
		return Result{}, fmt.Errorf("bound: exact enumeration limited to 30 nodes (got %d)", g.NumNodes())
	}
	total := m.Total()
	if total <= 0 {
		return Result{}, fmt.Errorf("bound: no offered traffic")
	}
	// The demand matrix, hoisted out of the per-cut loop as a dense
	// row-major copy; the cut sums still run in (i, j) order.
	n := g.NumNodes()
	dem := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				dem[i*n+j] = m.Demand(graph.NodeID(i), graph.NodeID(j))
			}
		}
	}
	best := Result{Blocking: -1}
	g.ForEachCut(func(c graph.Cut) bool {
		var fwdT, bwdT float64
		for i := 0; i < n; i++ {
			iIn := c.Contains(graph.NodeID(i))
			for j, d := range dem[i*n : i*n+n] {
				if d == 0 {
					continue
				}
				jIn := c.Contains(graph.NodeID(j))
				switch {
				case iIn && !jIn:
					fwdT += d
				case !iIn && jIn:
					bwdT += d
				}
			}
		}
		fwdC, bwdC := g.CrossingCapacity(c)
		fwdB, bwdB := erlang.BPair(fwdT, fwdC, bwdT, bwdC)
		val := 0.0
		if fwdT > 0 {
			val += fwdT / total * fwdB
		}
		if bwdT > 0 {
			val += bwdT / total * bwdB
		}
		if val > best.Blocking {
			best = Result{
				Blocking:        val,
				Cut:             c,
				ForwardTraffic:  fwdT,
				BackwardTraffic: bwdT,
				ForwardCapacity: fwdC, BackwardCapacity: bwdC,
			}
		}
		return true
	})
	if best.Blocking < 0 {
		best.Blocking = 0
	}
	return best, nil
}
