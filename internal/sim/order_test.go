package sim_test

// Equivalence and selection tests for the precomputed departure order:
// trace replays whose departure order is fixed in advance take their
// departures from it, every other replay keeps the departure heap, and
// both match the interpreted engine in Results and JSONL bytes.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// runPairOrdered is runPair plus the engine-selection assertion: both
// compiled runs (with and without a sink) must report whether the
// departure order replaced the heap as want says.
func runPairOrdered(t *testing.T, label string, cfg sim.Config, want bool) {
	t.Helper()
	var seen []bool
	defer sim.SetOrderHook(func(ordered bool) { seen = append(seen, ordered) })()
	runPair(t, label, cfg)
	if len(seen) != 2 || seen[0] != want || seen[1] != want {
		t.Fatalf("%s: departure order selections %v, want two of %v", label, seen, want)
	}
}

// TestDepartureOrderSelection pins down which runs take the precomputed
// order: compiled trace replays without a failure plan do; stream
// sources and failure-plan runs keep the heap; the interpreted engine
// never consults it.
func TestDepartureOrderSelection(t *testing.T) {
	sc := goldenScenarios(t)[1] // ring6
	pol := compiledGoldenPolicies(t, sc)["controlled"]
	tr := sim.GenerateTrace(sc.m, sc.horizon, 1)
	runPairOrdered(t, "trace", sim.Config{Graph: sc.g, Policy: pol, Trace: tr, Warmup: sc.warmup}, true)
	runPairOrdered(t, "failure plan", failureGoldenConfig(t, sim.FailoverDrop, 3), false)

	var seen []bool
	defer sim.SetOrderHook(func(ordered bool) { seen = append(seen, ordered) })()
	src, err := sim.NewStream(sc.m, sc.horizon, 1)
	if err != nil {
		t.Fatal(err)
	}
	configs := map[string]sim.Config{
		"stream":      {Graph: sc.g, Policy: pol, Source: src, Warmup: sc.warmup},
		"interpreted": {Graph: sc.g, Policy: uncompilable{pol}, Trace: tr, Warmup: sc.warmup},
	}
	for _, name := range []string{"stream", "interpreted"} {
		seen = nil
		if _, err := sim.Run(configs[name]); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := []bool{false}
		if name != "stream" {
			want = nil
		}
		if fmt.Sprint(seen) != fmt.Sprint(want) {
			t.Errorf("%s: departure order selections %v, want %v", name, seen, want)
		}
	}
}

// handTrace copies a generated ring6 trace so a test can edit its calls.
func handTrace(t *testing.T, seed int64) (goldenScenario, *sim.Trace) {
	t.Helper()
	sc := goldenScenarios(t)[1] // ring6
	tr := sim.GenerateTrace(sc.m, sc.horizon, seed)
	return sc, &sim.Trace{Calls: append([]sim.Call(nil), tr.Calls...), Horizon: tr.Horizon, Seed: tr.Seed}
}

// TestDepartureOrderFallback runs hand-built replays the order must
// decline — tied departure epochs, decreasing arrivals, a holding time
// that rounds away, no in-horizon calls, epochs too clustered to bucket
// — and requires the heap engine to match the interpreted one on each.
func TestDepartureOrderFallback(t *testing.T) {
	edits := []struct {
		name string
		edit func(tr *sim.Trace)
	}{
		// Arrivals and holdings on a 1/64 grid: thousands of calls share
		// a few hundred epochs.
		{"tied epochs", func(tr *sim.Trace) {
			for i := range tr.Calls {
				c := &tr.Calls[i]
				c.Arrival = math.Floor(c.Arrival*64) / 64
				c.Holding = math.Max(1, math.Round(c.Holding*64)) / 64
			}
		}},
		{"decreasing arrivals", func(tr *sim.Trace) {
			c := tr.Calls
			c[100].Arrival, c[101].Arrival = c[101].Arrival, c[100].Arrival
		}},
		{"holding rounds away", func(tr *sim.Trace) { tr.Calls[200].Holding = 1e-300 }},
		{"zero holding", func(tr *sim.Trace) { tr.Calls[200].Holding = 0 }},
		{"no in-horizon calls", func(tr *sim.Trace) {
			for i := range tr.Calls {
				tr.Calls[i].Arrival += tr.Horizon
			}
		}},
		// Every epoch but one inside the first of n buckets, in reverse
		// call order.
		{"clustered epochs", func(tr *sim.Trace) {
			n := len(tr.Calls)
			for i := range tr.Calls {
				c := &tr.Calls[i]
				c.Arrival = float64(i) / float64(n)
				c.Holding = 2 - 2*c.Arrival
			}
			tr.Calls[n-1].Holding = 1e6
			tr.Horizon = 2e6
		}},
	}
	for _, e := range edits {
		sc, tr := handTrace(t, 2)
		e.edit(tr)
		runPairOrdered(t, e.name, sim.Config{Graph: sc.g, Policy: compiledGoldenPolicies(t, sc)["controlled"], Trace: tr, Warmup: sc.warmup}, false)
	}
}

// TestDepartureOrderEdgeEpochs replays hand-built traces the order
// accepts but where departures land exactly on later arrival epochs and
// on the horizon: arrivals on a 1/256 grid and each call departing at a
// distinct grid point after its arrival. Departures at an arrival's
// epoch must run before its admission and departures at the horizon
// must run at all, with blocked calls' slots skipped, exactly as the heap
// does. Some calls are carried on the zero-hop path.
func TestDepartureOrderEdgeEpochs(t *testing.T) {
	const step = 1.0 / 256
	for _, seed := range []int64{1, 2} {
		sc, tr := handTrace(t, seed)
		n := int(sc.horizon / step)
		rng := rand.New(rand.NewSource(seed))
		taken := make(map[int]bool)
		calls := make([]sim.Call, n)
		onArrival, onHorizon := 0, 0
		for i := range calls {
			// Grid index of the departure: an exp(1) holding rounded up,
			// moved later until no other call departs there.
			d := i + 1 + int(rng.ExpFloat64()/step)
			for taken[d] {
				d++
			}
			taken[d] = true
			switch {
			case d < n:
				onArrival++
			case d == n:
				onHorizon++
			}
			c := tr.Calls[i%len(tr.Calls)]
			if i%97 == 0 {
				// A pair without routes: carried on the zero-hop path,
				// which still departs (with an event) but releases nothing.
				c.Dest = c.Origin
			}
			calls[i] = sim.Call{ID: i, Origin: c.Origin, Dest: c.Dest,
				Arrival: float64(i) * step, Holding: float64(d-i) * step}
		}
		if onArrival == 0 || onHorizon == 0 {
			t.Fatalf("seed %d: %d departures on arrivals, %d on the horizon; the trace misses the edge", seed, onArrival, onHorizon)
		}
		cfg := sim.Config{Graph: sc.g, Policy: compiledGoldenPolicies(t, sc)["controlled"],
			Trace: &sim.Trace{Calls: calls, Horizon: sc.horizon, Seed: seed}, Warmup: sc.warmup}
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Blocked == 0 {
			t.Fatalf("seed %d: no call blocked; unbooked slots are not exercised", seed)
		}
		runPairOrdered(t, fmt.Sprintf("edge epochs/seed=%d", seed), cfg, true)
	}
}
