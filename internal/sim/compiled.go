package sim

import (
	"math"

	"repro/internal/graph"
	"repro/internal/routetable"
	"repro/internal/xrand"
)

// TableCompiler is implemented by policies whose routing decision is fully
// described by a static route table plus per-link protection levels — the
// table-driven single-path, uncontrolled, controlled, and tiered schemes.
// Run executes such policies on a compiled fast path: flattened route rows
// (internal/routetable) scanned against precomputed occupancy thresholds,
// bit-identical to calling Route per arrival.
//
// CompileRoutes returns the policy's current compiled table; ok=false
// means the policy cannot be compiled and Run keeps the interpreted
// engine. Run re-invokes CompileRoutes after every failure/repair epoch,
// so a policy whose tables are swapped mid-run by a Config.TopologyHook
// (policy.Dynamic under core.AdaptiveScheme) stays compiled across swaps.
type TableCompiler interface {
	Policy
	CompileRoutes() (*routetable.Compiled, bool)
}

// compiledTable resolves a policy's compiled table for a topology: the
// policy must implement TableCompiler, compile successfully, and its table
// must be indexed by exactly the topology's node and link spaces.
func compiledTable(p Policy, g *graph.Graph) (*routetable.Compiled, bool) {
	tc, ok := p.(TableCompiler)
	if !ok {
		return nil, false
	}
	comp, ok := tc.CompileRoutes()
	if !ok || comp == nil || comp.Flat == nil ||
		comp.NumNodes != g.NumNodes() || comp.NumLinks != g.NumLinks() {
		return nil, false
	}
	return comp, true
}

// CompilesFor reports whether Run would execute the policy on the compiled
// fast path over this topology. It exists so equivalence tests can assert
// which engine a configuration exercises; Run itself applies the same
// check and falls back transparently.
func CompilesFor(p Policy, g *graph.Graph) bool {
	_, ok := compiledTable(p, g)
	return ok
}

// Rows Admission.Decide reports for calls that book no route-table row.
const (
	// RowBlocked is the admitted row of a lost call.
	RowBlocked int32 = -1
	// RowEmpty is both rows of a pair with no primaries: the source table
	// yields the empty path, which every state admits as a zero-hop
	// primary that books nothing.
	RowEmpty int32 = -2
)

// Admission is the compiled admission decision, shared by Run's compiled
// engine and the ctrl daemon's Engine: a Compiled table bound to a state
// through per-threshold-set, per-link maximum occupancies at which the link
// still admits. Admission over a row is then a branch-poor scan — one load
// and compare per hop, the clamp of r and the down/bounds checks all
// folded into the threshold at Compile time:
//
//	thresh[s][k] = −1                     if link k is down
//	             = C^k − clamp(r^k_s) − 1 otherwise
//
// A down link's −1 refuses every call (occupancy is never negative),
// matching State.Free; the clamp of r^k into [0, C^k] mirrors
// State.AdmitsAlternate, and set 0 always carries r = 0 (primaries).
// The zero value is unbound; Decide needs a successful Compile first.
type Admission struct {
	comp *routetable.Compiled
	// thresh[s] is threshold set s, indexed by LinkID; back is its single
	// backing array, reused across rebuilds.
	thresh [][]int
	back   []int
	// altSets is comp.AltSet; defAlt the default alternate set when nil.
	altSets []uint8
	defAlt  int
}

// Compile (re)binds the kernel to the policy's current compiled table and
// rebuilds every threshold set from st's capacities and down flags; call
// it again whenever either changes. It reports false, leaving the kernel
// as it was, when the policy is not a TableCompiler, its table does not
// compile, or the table's node and link spaces differ from st's topology.
func (a *Admission) Compile(st *State, p Policy) bool {
	comp, ok := compiledTable(p, st.g)
	if !ok {
		return false
	}
	a.comp = comp
	sets := len(comp.Prot)
	if sets == 0 {
		sets = 1
	}
	nl := comp.NumLinks
	if cap(a.back) < sets*nl {
		a.back = make([]int, sets*nl)
	}
	a.back = a.back[:sets*nl]
	if cap(a.thresh) < sets {
		a.thresh = make([][]int, sets)
	}
	a.thresh = a.thresh[:sets]
	for s := 0; s < sets; s++ {
		ts := a.back[s*nl : (s+1)*nl : (s+1)*nl]
		a.thresh[s] = ts
		var prot []int
		if s > 0 && s < len(comp.Prot) {
			// Set 0 is the primary rule: never protected, whatever Prot[0]
			// says.
			prot = comp.Prot[s]
		}
		for id := 0; id < nl; id++ {
			c, up := st.linkCap(graph.LinkID(id))
			if !up {
				ts[id] = -1
				continue
			}
			r := 0
			if id < len(prot) {
				r = prot[id]
			}
			if r < 0 {
				r = 0
			}
			if r > c {
				r = c
			}
			ts[id] = c - r - 1
		}
	}
	a.altSets = comp.AltSet
	a.defAlt = 0
	if sets > 1 {
		a.defAlt = 1
	}
	return true
}

// Table returns the compiled table of the last successful Compile.
func (a *Admission) Table() *routetable.Compiled { return a.comp }

// Row returns the link ids of row r of the bound table.
func (a *Admission) Row(r int32) []graph.LinkID { return a.comp.Row(r) }

// Decide makes one admission decision against st's occupancy, bit-identical
// to the policy's Route: primary selection (including the bifurcated
// weighted draw keyed on callID), first-blocking-hop attribution and the
// alternate scan in table order under each row's threshold set. It books
// nothing; the caller occupies the admitted row or records the loss.
//
// prim is the primary row the call tried, and blockIdx the index of its
// first blocking hop within that row (−1 when the primary admits). row is
// the admitted row: prim, an alternate when blockIdx ≥ 0, or RowBlocked.
// A pair with no primaries returns RowEmpty for both rows and blockIdx −1.
//
//altlint:hotpath
func (a *Admission) Decide(st *State, origin, dest graph.NodeID, callID int64) (prim, row int32, blockIdx int) {
	f := a.comp.Flat
	var start, alt0, end int32
	if uint(origin) < uint(f.NumNodes) && uint(dest) < uint(f.NumNodes) {
		p := int(origin)*f.NumNodes + int(dest)
		start, end = f.PairOff[p], f.PairOff[p+1]
		alt0 = f.AltStart[p]
	}
	if alt0 == start {
		return RowEmpty, RowEmpty, -1
	}
	// Primary selection: single primaries resolve directly; bifurcated
	// pairs reproduce Table.SelectPrimary's weighted draw against the
	// precomputed cumulative sums.
	prim = start
	if alt0-start > 1 {
		u := xrand.Uniform01(f.SelectorSeed, callID)
		prim = alt0 - 1
		for r := start; r < alt0; r++ {
			if u < f.PrimCum[r] {
				prim = r
				break
			}
		}
	}
	occ := st.occ
	blockIdx = firstOver(occ, a.thresh[0], f.Links[f.RowOff[prim]:f.RowOff[prim+1]])
	if blockIdx < 0 {
		return prim, prim, -1
	}
	if !a.comp.NoAlternates {
		for r := alt0; r < end; r++ {
			ts := a.thresh[a.defAlt]
			if a.altSets != nil {
				ts = a.thresh[a.altSets[r]]
			}
			if firstOver(occ, ts, f.Links[f.RowOff[r]:f.RowOff[r+1]]) < 0 {
				return prim, r, blockIdx
			}
		}
	}
	return prim, RowBlocked, blockIdx
}

// firstOver returns the index of the first link whose occupancy exceeds
// its threshold, or −1 when every link admits.
func firstOver(occ, thresh []int, links []graph.LinkID) int {
	for i, id := range links {
		if occ[id] > thresh[id] {
			return i
		}
	}
	return -1
}

// arrivalBatch is the micro-batch span: how many consecutive arrivals the
// compiled loop pulls from the source before re-entering the per-call
// admission scan. Departure and plan epochs are still honored exactly —
// each arrival checks the next pending epoch against two scalars before
// touching the heap — so batching changes memory traffic, not semantics.
const arrivalBatch = 256

// nextEpochs returns the earliest pending departure and plan epochs
// (+Inf when none), the scalar guards the compiled loop compares each
// arrival against instead of re-reading the heap.
func (l *loop) nextEpochs() (dep, plan float64) {
	dep, plan = math.Inf(1), math.Inf(1)
	if l.ord != nil {
		dep = l.ord.nextAt()
	} else if l.deps.len() > 0 {
		dep = l.deps.ents[0].at
	}
	if l.pi < len(l.plan) {
		plan = l.plan[l.pi].Epoch
	}
	return dep, plan
}

// runCompiled is the fast engine: arrivals are consumed in micro-batches
// and decided by the Admission kernel, bound by Run to the run's state.
// Every decision — primary selection (including the bifurcated weighted
// draw), alternate order, first-blocking-link loss attribution, tie-breaks
// against departures and plan events — reproduces the interpreted engine
// bit for bit.
//
//altlint:hotpath
func (l *loop) runCompiled(adm *Admission) {
	comp := adm.Table()
	l.deps.base = comp.Links
	if l.cfg.Trace != nil && len(l.plan) == 0 {
		// Without plan events the table never changes mid-run, so slots
		// can name its rows.
		l.ord = newDepOrder(l.cfg.Trace, l.horizon, comp.RowOff, comp.Links)
	}
	if orderHook != nil {
		orderHook(l.ord != nil)
	}
	// compiled gates the kernel. It drops to false only if a mid-run
	// recompile fails (a TopologyHook swapped in an incompilable or
	// mismatched table), after which arrivals route through Policy.Route —
	// same decisions, interpreted speed.
	compiled := true
	occ := l.st.occ
	util := l.util[:len(occ)]
	last := l.last[:len(occ)]
	warm := l.cfg.Warmup
	nextDep, nextPlan := l.nextEpochs()

	var calls []Call // trace replay: iterated in place, no cursor
	var buf []Call   // stream mode: reusable refill buffer
	idx := 0
	if l.cfg.Trace != nil {
		calls = l.cfg.Trace.Calls
	} else {
		buf = make([]Call, 0, arrivalBatch)
	}

	for {
		var batch []Call
		first := idx // trace index of batch[0] (trace replay only)
		if l.cfg.Trace != nil {
			if idx >= len(calls) {
				return
			}
			hi := idx + arrivalBatch
			if hi > len(calls) {
				hi = len(calls)
			}
			batch = calls[idx:hi]
			idx = hi
		} else {
			buf = buf[:0]
			for len(buf) < arrivalBatch {
				c, more := l.cfg.Source.Next()
				if !more {
					break
				}
				buf = append(buf, c)
				if c.Arrival >= l.horizon {
					// Stop refilling at the first out-of-horizon arrival so
					// the source is consumed exactly as far as the
					// interpreted loop would.
					break
				}
			}
			if len(buf) == 0 {
				return
			}
			batch = buf
		}

		for k, c := range batch {
			if c.Arrival >= l.horizon {
				return
			}
			if nextDep <= c.Arrival || nextPlan <= c.Arrival {
				piBefore := l.pi
				l.drainTo(c.Arrival)
				if l.pi != piBefore {
					// A plan group ran: link states changed and a
					// TopologyHook may have swapped tables. Recompile
					// against the degraded topology.
					if compiled = adm.Compile(l.st, l.cfg.Policy); compiled {
						comp = adm.Table()
						l.deps.base = comp.Links
					}
				}
				nextDep, nextPlan = l.nextEpochs()
			}
			pairIdx := int(c.Origin)*l.numNodes + int(c.Dest)
			measured, win := l.offered(c, pairIdx)

			if !compiled {
				// Mid-run recompile failed; identical decisions via Route.
				if l.route(c, pairIdx, measured, win) {
					if dep := c.Arrival + c.Holding; dep < nextDep {
						nextDep = dep
					}
				}
				continue
			}

			prim, row, blockIdx := adm.Decide(l.st, c.Origin, c.Dest, int64(c.ID))
			if row == RowBlocked {
				blockAt := graph.InvalidLink
				if measured {
					// Loss attribution: the primary scan already found the
					// first blocking link, and no state changed since.
					blockAt = comp.Links[comp.RowOff[prim]+int32(blockIdx)]
				}
				l.blocked(c, pairIdx, measured, win, blockAt)
				continue
			}
			var off, hops int32
			if row != RowEmpty {
				off = comp.RowOff[row]
				hops = comp.RowOff[row+1] - off
				// The scan just proved occ <= C−1 on every (up) hop, so the
				// direct increments cannot overbook; down links never pass
				// (threshold −1), matching the interpreted admission. Each
				// hop is flushed at the arrival epoch before its increment —
				// flushLink with the horizon clip elided (the arrival is
				// inside the horizon), bit-identical to the general form.
				for _, id := range comp.Links[off : off+hops] {
					lo := last[id]
					if lo < warm {
						lo = warm
					}
					if o := occ[id]; c.Arrival > lo && o != 0 {
						util[id] += (c.Arrival - lo) * float64(o)
					}
					last[id] = c.Arrival
					occ[id]++
				}
			}
			// An empty pair's RowEmpty doubles as its slot marker.
			l.admittedRow(c, first+k, row, off, hops, blockIdx >= 0, measured)
			if dep := c.Arrival + c.Holding; dep < nextDep {
				nextDep = dep
			}
		}
	}
}
