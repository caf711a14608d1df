package main

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// simInputs is one simulator workload's generated inputs.
type simInputs struct {
	g       *graph.Graph
	m       *traffic.Matrix
	h       int
	sc      *core.Scheme
	pol     sim.Policy
	tr      *sim.Trace // the replayed trace
	horizon float64
	seed    int64
}

// nsfnetInputs is the NSFNet set-up: topology, fitted matrix, controlled
// scheme at H=11 and one trace.
func nsfnetInputs(seed int64, horizon float64) (*simInputs, error) {
	g, m, err := fitNSFNet()
	if err != nil {
		return nil, err
	}
	sc, err := core.New(g, m, core.Options{H: nsfnetH})
	if err != nil {
		return nil, err
	}
	return &simInputs{g: g, m: m, h: nsfnetH, sc: sc, pol: sc.Controlled(),
		tr: sim.GenerateTrace(m, horizon, seed), horizon: horizon, seed: seed}, nil
}

// runReplay is nsfnet-replay: one trace, generated in set-up, replayed
// back to back through sim.Run with a nil sink.
func runReplay(e *env) (*outcome, error) {
	o := newOutcome()
	in, setupS, err := repeatSetup(e, func() (*simInputs, error) { return nsfnetInputs(e.seed, replayHorizon) })
	if err != nil {
		return nil, err
	}
	if e.tr != nil {
		return o, replayTraced(e, o, in)
	}
	o.set("setup_s", setupS, "s")
	cfg := sim.Config{Graph: in.g, Policy: in.pol, Trace: in.tr, Warmup: warmup}
	var got []counters
	var offered int64
	var last *sim.Result
	ds, rss := opLoop(e, o, "replay", func(int) error {
		res, err := sim.Run(cfg)
		last = res
		return err
	}, func(int) {
		got = append(got, countersOf(last))
		offered += last.Offered
	})
	o.set("peak_rss_mb", median(rss), "MB")

	checkNominal(o, in.m)
	checkAgainstInterpreted(e, o, sim.Config{Graph: in.g, Policy: interpreted{in.pol}, Trace: in.tr, Warmup: warmup}, got)
	perRun := float64(offered) / float64(max(len(ds), 1))
	o.set("calls_per_s", float64(offered)/sum(ds), "1/s")
	opMetrics(e, o, ds)
	e.note("%d runs of %d calls (%.0f offered in the window)", len(ds), len(in.tr.Calls), perRun)
	return o, nil
}

// checkAgainstInterpreted runs the reference (interpreted engine) once and
// compares every timed run's counters with it.
func checkAgainstInterpreted(e *env, o *outcome, ref sim.Config, got []counters) {
	res, err := sim.Run(ref)
	o.attempted++
	if err != nil {
		o.fail("reference run: %v", err)
		return
	}
	want := countersOf(res)
	for i, c := range got {
		o.check(c == want, "run %d counters %+v differ from the interpreted reference %+v", i, c, want)
	}
	e.note("simulated blocking %.6f (%d blocked of %d offered, %d alternate-routed); %d runs match the interpreted engine",
		res.Blocking(), res.Blocked, res.Offered, res.AlternateAccepted, len(got))
}
