package sim_test

// Tests for the departure ranking cached on a Trace: it is built once per
// (Calls slice, horizon) and reused by every later replay, rebuilt when
// either changes, cached when declined, and safe to build from concurrent
// replays. Every replay still matches the interpreted engine in Results
// and JSONL bytes.

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/sim"
)

// requireBuilds fails unless f builds exactly want rankings.
func requireBuilds(t *testing.T, label string, want int64, f func()) {
	t.Helper()
	before := sim.RankBuilds()
	f()
	if got := sim.RankBuilds() - before; got != want {
		t.Fatalf("%s: %d rankings built, want %d", label, got, want)
	}
}

// TestTraceRankSharedAcrossPolicies replays one generated trace under
// three policies: generating it ranks nothing, and the first replay's
// ranking serves the other two.
func TestTraceRankSharedAcrossPolicies(t *testing.T) {
	sc := goldenScenarios(t)[2] // nsfnet-nominal
	pols := compiledGoldenPolicies(t, sc)
	var tr *sim.Trace
	requireBuilds(t, "generate", 0, func() { tr = sim.GenerateTrace(sc.m, sc.horizon, 3) })
	requireBuilds(t, "three policies", 1, func() {
		for _, name := range []string{"single-path", "uncontrolled", "controlled"} {
			runPairOrdered(t, name, sim.Config{Graph: sc.g, Policy: pols[name], Trace: tr, Warmup: sc.warmup}, true)
		}
	})
}

// TestTraceRankFollowsHorizon replays one trace alternately to its own
// horizon and to a shorter Config.Horizon: the cache holds one ranking,
// so each switch ranks again, and every replay matches the interpreted
// engine.
func TestTraceRankFollowsHorizon(t *testing.T) {
	sc := goldenScenarios(t)[1] // ring6
	pol := compiledGoldenPolicies(t, sc)["controlled"]
	tr := sim.GenerateTrace(sc.m, sc.horizon, 4)
	for i, h := range []float64{0, 7.5, 0, 7.5} {
		label := fmt.Sprintf("replay %d/horizon=%v", i, h)
		requireBuilds(t, label, 1, func() {
			runPairOrdered(t, label, sim.Config{Graph: sc.g, Policy: pol, Trace: tr, Warmup: sc.warmup, Horizon: h}, true)
		})
	}
}

// TestTraceRankRekeyedOnNewCalls replaces a replayed trace's Calls with
// an edited copy, then with a shorter slice of the same array: each
// replacement is ranked again rather than served the stale ranking.
func TestTraceRankRekeyedOnNewCalls(t *testing.T) {
	sc, tr := handTrace(t, 5)
	cfg := sim.Config{Graph: sc.g, Policy: compiledGoldenPolicies(t, sc)["controlled"], Trace: tr, Warmup: sc.warmup}
	requireBuilds(t, "original", 1, func() { runPairOrdered(t, "original", cfg, true) })
	orig, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	edited := append([]sim.Call(nil), tr.Calls...)
	for i := range edited {
		edited[i].Holding *= 1.5
	}
	tr.Calls = edited
	requireBuilds(t, "edited copy", 1, func() { runPairOrdered(t, "edited copy", cfg, true) })
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted == orig.Accepted && res.Blocked == orig.Blocked {
		t.Fatalf("edited copy: counters %d/%d unchanged; the edit is not exercised", res.Accepted, res.Blocked)
	}

	tr.Calls = tr.Calls[:len(tr.Calls)/2]
	requireBuilds(t, "shortened", 1, func() { runPairOrdered(t, "shortened", cfg, true) })
}

// TestTraceRankDeclineCached replays a trace with tied departure epochs
// several times: it is checked once, and every replay keeps the heap.
func TestTraceRankDeclineCached(t *testing.T) {
	sc, tr := handTrace(t, 2)
	for i := range tr.Calls {
		c := &tr.Calls[i]
		c.Arrival = math.Floor(c.Arrival*64) / 64
		c.Holding = math.Max(1, math.Round(c.Holding*64)) / 64
	}
	cfg := sim.Config{Graph: sc.g, Policy: compiledGoldenPolicies(t, sc)["controlled"], Trace: tr, Warmup: sc.warmup}
	requireBuilds(t, "tied epochs", 1, func() {
		for i := range 3 {
			runPairOrdered(t, fmt.Sprintf("tied epochs/replay %d", i), cfg, false)
		}
	})
}

// TestTraceRankConcurrentReplays starts 8 replays of one trace that has
// not been ranked yet at the same moment. Each may build and publish the
// ranking; all must match the interpreted engine. Run it under -race.
func TestTraceRankConcurrentReplays(t *testing.T) {
	const replays = 8
	sc := goldenScenarios(t)[2] // nsfnet-nominal
	pol := compiledGoldenPolicies(t, sc)["controlled"]
	tr := sim.GenerateTrace(sc.m, sc.horizon, 6)
	cfg := sim.Config{Graph: sc.g, Policy: pol, Trace: tr, Warmup: sc.warmup}
	ref := cfg
	ref.Policy = uncompilable{pol}
	want, err := sim.Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	before := sim.RankBuilds()
	results := make([]*sim.Result, replays)
	errs := make([]error, replays)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range replays {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			results[g], errs[g] = sim.Run(cfg)
		}()
	}
	close(start)
	wg.Wait()
	for g, res := range results {
		if errs[g] != nil {
			t.Fatalf("replay %d: %v", g, errs[g])
		}
		requireSameResult(t, fmt.Sprintf("replay %d", g), res, want)
	}
	if n := sim.RankBuilds() - before; n < 1 || n > replays {
		t.Fatalf("%d rankings built by %d replays", n, replays)
	}
}
