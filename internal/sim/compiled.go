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

// compileFor resolves the compiled fast path for a policy: the policy must
// implement TableCompiler, compile successfully, and its table must be
// indexed by exactly the run topology's node and link spaces.
func compileFor(p Policy, g *graph.Graph) (*routetable.Compiled, TableCompiler, bool) {
	tc, ok := p.(TableCompiler)
	if !ok {
		return nil, nil, false
	}
	comp, ok := tc.CompileRoutes()
	if !ok || comp == nil || comp.Flat == nil {
		return nil, nil, false
	}
	if comp.NumNodes != g.NumNodes() || comp.NumLinks != g.NumLinks() {
		return nil, nil, false
	}
	return comp, tc, true
}

// CompilesFor reports whether Run would execute the policy on the compiled
// fast path over this topology. It exists so equivalence tests can assert
// which engine a configuration exercises; Run itself applies the same
// check and falls back transparently.
func CompilesFor(p Policy, g *graph.Graph) bool {
	_, _, ok := compileFor(p, g)
	return ok
}

// fastEngine is a Compiled table bound to one run's state: per threshold
// set and link, the maximum occupancy at which the link still admits.
// Admission over a row is then a branch-poor scan — one load and compare
// per hop, the clamp of r and the down/bounds checks all folded into the
// threshold at (re)build time:
//
//	thresh[s][k] = −1                     if link k is down
//	             = C^k − clamp(r^k_s) − 1 otherwise
//
// A down link's −1 refuses every call (occupancy is never negative),
// matching State.Free; the clamp of r^k into [0, C^k] mirrors
// State.AdmitsAlternate, and set 0 always carries r = 0 (primaries).
type fastEngine struct {
	comp *routetable.Compiled
	// thresh[s] is threshold set s, indexed by LinkID; back is its single
	// backing array, reused across rebuilds.
	thresh [][]int
	back   []int
	// altSets is comp.AltSet; defAlt the default alternate set when nil.
	altSets []uint8
	defAlt  int
	// ok gates the compiled scan. It drops to false only if a mid-run
	// recompile fails (a TopologyHook swapped in an incompilable or
	// mismatched table), after which arrivals route through Policy.Route —
	// same decisions, interpreted speed.
	ok bool
}

// reset (re)binds the engine to a compiled table and rebuilds every
// threshold set from the state's current capacities and down flags.
func (fe *fastEngine) reset(st *State, comp *routetable.Compiled) {
	fe.comp = comp
	sets := len(comp.Prot)
	if sets == 0 {
		sets = 1
	}
	nl := comp.NumLinks
	if cap(fe.back) < sets*nl {
		fe.back = make([]int, sets*nl)
	}
	fe.back = fe.back[:sets*nl]
	if cap(fe.thresh) < sets {
		fe.thresh = make([][]int, sets)
	}
	fe.thresh = fe.thresh[:sets]
	for s := 0; s < sets; s++ {
		ts := fe.back[s*nl : (s+1)*nl : (s+1)*nl]
		fe.thresh[s] = ts
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
	fe.altSets = comp.AltSet
	fe.defAlt = 0
	if sets > 1 {
		fe.defAlt = 1
	}
	fe.ok = true
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
// and admitted by scanning the policy's flattened route rows against the
// packed thresholds. Every decision — primary selection (including the
// bifurcated weighted draw), alternate order, first-blocking-link loss
// attribution, tie-breaks against departures and plan events — reproduces
// the interpreted engine bit for bit.
//
//altlint:hotpath
func (l *loop) runCompiled(comp *routetable.Compiled) {
	var fe fastEngine
	fe.reset(l.st, comp)
	l.deps.base = comp.Links
	if l.cfg.Trace != nil && len(l.plan) == 0 {
		// Without plan events the table never changes mid-run, so slots
		// can name its rows.
		l.ord = newDepOrder(l.cfg.Trace, l.horizon, comp.RowOff, comp.Links)
	}
	if orderHook != nil {
		orderHook(l.ord != nil)
	}
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
					if nc, _, ok := compileFor(l.cfg.Policy, l.cfg.Graph); ok {
						fe.reset(l.st, nc)
						l.deps.base = nc.Links
					} else {
						fe.ok = false
					}
				}
				nextDep, nextPlan = l.nextEpochs()
			}
			pairIdx := int(c.Origin)*l.numNodes + int(c.Dest)
			measured, win := l.offered(c, pairIdx)

			if !fe.ok {
				// Mid-run recompile failed; identical decisions via Route.
				if p, alternate, ok := l.cfg.Policy.Route(l.st, c); ok {
					l.flushPath(p, c.Arrival)
					l.st.Occupy(p)
					l.admitted(c, p, alternate, measured)
					if dep := c.Arrival + c.Holding; dep < nextDep {
						nextDep = dep
					}
					continue
				}
				blockAt := graph.InvalidLink
				if measured {
					primary := l.cfg.Policy.PrimaryPath(l.st, c)
					if admitted, blockLink := l.st.PathAdmitsPrimary(primary); !admitted && blockLink != graph.InvalidLink {
						blockAt = blockLink
					}
				}
				l.blocked(c, pairIdx, measured, win, blockAt)
				continue
			}

			f := fe.comp
			var start, alt0, end int32
			inRange := uint(int(c.Origin)) < uint(f.NumNodes) && uint(int(c.Dest)) < uint(f.NumNodes)
			if inRange {
				p := int(c.Origin)*f.NumNodes + int(c.Dest)
				start, end = f.PairOff[p], f.PairOff[p+1]
				alt0 = f.AltStart[p]
			}
			if !inRange || alt0 == start {
				// No primaries for the pair: the source table would yield
				// the empty path, which every state admits as a zero-hop
				// primary. Book nothing, carry the call.
				l.admittedRow(c, first+k, slotEmpty, 0, 0, false, measured)
				if dep := c.Arrival + c.Holding; dep < nextDep {
					nextDep = dep
				}
				continue
			}

			// Primary selection: single primaries resolve directly;
			// bifurcated pairs reproduce Table.SelectPrimary's weighted
			// draw against the precomputed cumulative sums.
			pr := start
			if alt0-start > 1 {
				u := xrand.Uniform01(f.SelectorSeed, int64(c.ID))
				pr = alt0 - 1
				for r := start; r < alt0; r++ {
					if u < f.PrimCum[r] {
						pr = r
						break
					}
				}
			}
			t0 := fe.thresh[0]
			primOff := f.RowOff[pr]
			prim := f.Links[primOff:f.RowOff[pr+1]]
			blockIdx := -1
			for i, id := range prim {
				if occ[id] > t0[id] {
					blockIdx = i
					break
				}
			}
			if blockIdx < 0 {
				// The scan just proved occ <= C−1 on every (up) hop, so the
				// direct increments cannot overbook; down links never pass
				// (threshold −1), matching the interpreted admission. Each
				// hop is flushed at the arrival epoch before its increment —
				// flushLink with the horizon clip elided (the arrival is
				// inside the horizon), bit-identical to the general form.
				for _, id := range prim {
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
				l.admittedRow(c, first+k, pr, primOff, int32(len(prim)), false, measured)
				if dep := c.Arrival + c.Holding; dep < nextDep {
					nextDep = dep
				}
				continue
			}
			if !f.NoAlternates {
				admitted := false
				for r := alt0; r < end; r++ {
					ts := fe.thresh[fe.defAlt]
					if fe.altSets != nil {
						ts = fe.thresh[fe.altSets[r]]
					}
					altOff := f.RowOff[r]
					alt := f.Links[altOff:f.RowOff[r+1]]
					good := true
					for _, id := range alt {
						if occ[id] > ts[id] {
							good = false
							break
						}
					}
					if good {
						for _, id := range alt {
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
						l.admittedRow(c, first+k, r, altOff, int32(len(alt)), true, measured)
						if dep := c.Arrival + c.Holding; dep < nextDep {
							nextDep = dep
						}
						admitted = true
						break
					}
				}
				if admitted {
					continue
				}
			}
			blockAt := graph.InvalidLink
			if measured {
				// Loss attribution: the primary scan already found the
				// first blocking link, and no state changed since.
				blockAt = prim[blockIdx]
			}
			l.blocked(c, pairIdx, measured, win, blockAt)
		}
	}
}
