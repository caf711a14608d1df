package ctrl

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/optimize"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// quadranglePolicy builds a Controlled policy over the quadrangle with
// uniform per-link loads.
func quadranglePolicy(t *testing.T, g *graph.Graph, load float64) policy.Controlled {
	t.Helper()
	tbl, err := policy.BuildMinHop(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]float64, g.NumLinks())
	for i := range loads {
		loads[i] = load
	}
	p, err := policy.NewControlled(tbl, loads)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// quadrangleTiered builds a ControlledTiered policy over the quadrangle
// with uniform per-link loads: two-hop alternates use the short-class
// threshold set, longer ones the long-class set.
func quadrangleTiered(t *testing.T, g *graph.Graph, load float64) policy.ControlledTiered {
	t.Helper()
	tbl, err := policy.BuildMinHop(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]float64, g.NumLinks())
	for i := range loads {
		loads[i] = load
	}
	p, err := policy.NewControlledTiered(tbl, loads, 2)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// nsfnetNominal returns the paper's nominal NSFNet traffic matrix.
func nsfnetNominal(t *testing.T) *traffic.Matrix {
	t.Helper()
	m, _, err := traffic.NSFNetNominal()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// minLossUncontrolled derives uncontrolled alternate routing (H = 11)
// over bifurcated min-loss primaries for the matrix, and fails unless some
// pair really has several primaries.
func minLossUncontrolled(t *testing.T, g *graph.Graph, m *traffic.Matrix) sim.TableCompiler {
	t.Helper()
	opt, err := optimize.MinLossPrimaries(g, m, optimize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := policy.BuildBifurcated(g, opt.Primaries, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := core.NewWithTable(g, m, tbl, core.Options{H: 11})
	if err != nil {
		t.Fatal(err)
	}
	tc, ok := scheme.Uncontrolled().(sim.TableCompiler)
	if !ok {
		t.Fatal("uncontrolled policy is not a sim.TableCompiler")
	}
	if comp, ok := tc.CompileRoutes(); !ok || comp.PrimCum == nil {
		t.Fatal("min-loss table has no bifurcated pair; the PrimCum draw goes untested")
	}
	return tc
}

func TestEngineAdmitReleaseLifecycle(t *testing.T) {
	g := netmodel.Quadrangle()
	pol := quadranglePolicy(t, g, 85)
	e, err := NewEngine(g, nil, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := e.Admit(0.5, 1, 0, 1)
	if err != nil || !dec.Admitted || dec.Alternate {
		t.Fatalf("first admit: %+v, %v", dec, err)
	}
	if len(dec.Links) != 1 {
		t.Fatalf("direct route should be one hop, got %d", len(dec.Links))
	}
	if got := e.State().Occupancy(dec.Links[0]); got != 1 {
		t.Fatalf("occupancy %d after admit", got)
	}

	// Duplicate id while in flight: rejected, counted, nothing booked.
	if _, err := e.Admit(0.6, 1, 0, 2); !errors.Is(err, ErrDuplicateCall) {
		t.Fatalf("duplicate admit: %v", err)
	}
	// Bad endpoints.
	if _, err := e.Admit(0.6, 7, 0, 0); !errors.Is(err, ErrBadNode) {
		t.Fatalf("self-loop admit: %v", err)
	}
	if _, err := e.Admit(0.6, 7, 0, 99); !errors.Is(err, ErrBadNode) {
		t.Fatalf("out-of-range admit: %v", err)
	}

	if err := e.Release(1); err != nil {
		t.Fatalf("release: %v", err)
	}
	if got := e.State().Occupancy(dec.Links[0]); got != 0 {
		t.Fatalf("occupancy %d after release", got)
	}
	// Double release: typed error, metric, no panic, no corruption.
	if err := e.Release(1); !errors.Is(err, ErrUnknownCall) {
		t.Fatalf("double release: %v", err)
	}
	m := e.Metrics()
	if m.Offered != 1 || m.Admitted != 1 || m.Released != 1 ||
		m.DuplicateAdmits != 1 || m.UnknownReleases != 1 || m.InFlight != 0 {
		t.Errorf("metrics %+v", m)
	}
}

// TestEngineRejectsForeignState: the thresholds are built from the
// state's own link records, so a state of another topology is refused at
// construction instead of deciding against the wrong capacities.
func TestEngineRejectsForeignState(t *testing.T) {
	g := netmodel.Quadrangle()
	if _, err := NewEngine(g, sim.NewState(netmodel.Quadrangle()), quadranglePolicy(t, g, 85), nil); err == nil {
		t.Fatal("engine accepted a state of another graph")
	}
}

// TestEngineAlternateAndBlocking saturates the direct link and checks the
// alternate scan and first-blocking-link attribution match the scheme's
// semantics: alternates carry overflow while protection admits them, and
// a lost call is attributed to the primary's first blocking link.
func TestEngineAlternateAndBlocking(t *testing.T) {
	// Tiny custom mesh: duplex triangle with capacity 2 and protection 1.
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	for _, pair := range [][2]graph.NodeID{{a, b}, {b, c}, {a, c}} {
		if _, _, err := g.AddDuplex(pair[0], pair[1], 2); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := policy.BuildMinHop(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := make([]int, g.NumLinks())
	for i := range r {
		r[i] = 1
	}
	e, err := NewEngine(g, nil, policy.Controlled{T: tbl, R: r}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Fill the direct a→b link (capacity 2).
	for id := int64(1); id <= 2; id++ {
		dec, err := e.Admit(float64(id), id, a, b)
		if err != nil || !dec.Admitted || dec.Alternate {
			t.Fatalf("fill admit %d: %+v, %v", id, dec, err)
		}
	}
	// Next a→b call overflows to the alternate a→c→b: both alternate links
	// are at occupancy 0 <= C−r−1 = 0.
	dec, err := e.Admit(3, 3, a, b)
	if err != nil || !dec.Admitted || !dec.Alternate || len(dec.Links) != 2 {
		t.Fatalf("overflow admit: %+v, %v", dec, err)
	}
	// A fourth call finds the alternate protected (its links now at
	// occupancy 1 > 0) and is lost at the direct link.
	direct := g.LinkBetween(a, b)
	dec, err = e.Admit(4, 4, a, b)
	if err != nil || dec.Admitted {
		t.Fatalf("expected loss: %+v, %v", dec, err)
	}
	if dec.BlockedAt != direct {
		t.Errorf("loss attributed to link %d, want direct %d", dec.BlockedAt, direct)
	}
}

// TestEngineTopologyRecompile fails a link and checks the thresholds
// refuse it immediately (and admit again after repair), the same rebuild
// the simulation engines perform at failure epochs.
func TestEngineTopologyRecompile(t *testing.T) {
	g := netmodel.Quadrangle()
	pol := quadranglePolicy(t, g, 10)
	e, err := NewEngine(g, nil, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct := g.LinkBetween(0, 1)
	e.SetLinkDown(direct, true)
	dec, err := e.Admit(1, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Admitted || !dec.Alternate {
		t.Fatalf("admission over degraded topology: %+v (want alternate)", dec)
	}
	for _, id := range dec.Links {
		if id == direct {
			t.Error("booked the down link")
		}
	}
	e.SetLinkDown(direct, false)
	dec, err = e.Admit(2, 2, 0, 1)
	if err != nil || !dec.Admitted || dec.Alternate {
		t.Fatalf("admission after repair: %+v, %v", dec, err)
	}
}

// TestEngineEstimatorFeedback checks observed set-ups reach the EWMA
// estimator with the paper's first-blocking-link convention.
func TestEngineEstimatorFeedback(t *testing.T) {
	g := netmodel.Quadrangle()
	pol := quadranglePolicy(t, g, 85)
	est, err := estimate.New(g, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, nil, pol, est)
	if err != nil {
		t.Fatal(err)
	}
	direct := g.LinkBetween(0, 1)
	for i := int64(0); i < 10; i++ {
		if _, err := e.Admit(float64(i)*0.1, i, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	est.Advance(1.5) // folds window [0,1) only
	if got := est.Estimate(direct); got != 10 {
		t.Errorf("estimated Λ̂ = %v, want 10 (10 set-ups in one unit window)", got)
	}
}

// TestEngineInterpretedFallbackMatchesCompiled drives the same request
// sequence through a compiled engine and one forced onto the interpreted
// fallback, and requires identical decisions — the fallback contract.
func TestEngineInterpretedFallbackMatchesCompiled(t *testing.T) {
	g := netmodel.Quadrangle()
	pol := quadranglePolicy(t, g, 85)
	fast, err := NewEngine(g, nil, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := NewEngine(g, nil, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	slow.compiled = false // force Route fallback

	type req struct {
		id           int64
		origin, dest graph.NodeID
	}
	var reqs []req
	id := int64(0)
	for round := 0; round < 40; round++ {
		for o := 0; o < 4; o++ {
			for d := 0; d < 4; d++ {
				if o == d {
					continue
				}
				reqs = append(reqs, req{id, graph.NodeID(o), graph.NodeID(d)})
				id++
			}
		}
	}
	for i, r := range reqs {
		now := float64(i) * 0.01
		df, errF := fast.Admit(now, r.id, r.origin, r.dest)
		ds, errS := slow.Admit(now, r.id, r.origin, r.dest)
		if (errF == nil) != (errS == nil) {
			t.Fatalf("req %d: error mismatch %v vs %v", i, errF, errS)
		}
		if df.Admitted != ds.Admitted || df.Alternate != ds.Alternate ||
			len(df.Links) != len(ds.Links) || df.BlockedAt != ds.BlockedAt {
			t.Fatalf("req %d: decisions diverge: %+v vs %+v", i, df, ds)
		}
		// Periodically release a third of the in-flight calls on both.
		if i%9 == 8 {
			rel := r.id - 6
			errF, errS := fast.Release(rel), slow.Release(rel)
			if (errF == nil) != (errS == nil) {
				t.Fatalf("release %d: %v vs %v", rel, errF, errS)
			}
		}
	}
	if slow.Metrics().FallbackDecisions == 0 {
		t.Error("interpreted engine never took the fallback path")
	}
}
