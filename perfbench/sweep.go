package main

import (
	"math"
	"runtime"
	"time"

	"repro/internal/bound"
	"repro/internal/core"
	"repro/internal/erlang"
	"repro/internal/experiments"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// The nsfnet-sweep workload is `altsim nsfnet` at loads {8,10,12}: H=11,
// three policies, four seeds, the paper's warm-up and horizon, and the
// engine's default Parallelism. experiments.NSFNetSweep seeds its traces
// 0..Seeds-1 itself, so the benchmark seed does not reach this workload's
// inputs.
var sweepLoads = []float64{8, 10, 12}

const sweepSeeds = 4

func sweepParams(parallelism int) experiments.SimParams {
	return experiments.SimParams{Seeds: sweepSeeds, Parallelism: parallelism}
}

func runSweep(e *env) (*outcome, error) {
	o := newOutcome()
	var m *traffic.Matrix
	_, setupS, err := repeatSetup(e, func() (struct{}, error) {
		var err error
		_, m, err = fitNSFNet()
		return struct{}{}, err
	})
	if err != nil {
		return nil, err
	}
	if e.tr != nil {
		return o, sweepTraced(e, o)
	}
	o.set("setup_s", setupS, "s")
	var sweeps []*experiments.Sweep
	ds, rss := opLoop(e, o, "sweep", func(int) error {
		sw, err := experiments.NSFNetSweep(sweepLoads, nsfnetH, false, sweepParams(0))
		sweeps = append(sweeps, sw)
		return err
	}, nil)
	o.set("peak_rss_mb", median(rss), "MB")

	checkNominal(o, m)
	t0 := time.Now()
	ref, err := experiments.NSFNetSweep(sweepLoads, nsfnetH, false, sweepParams(1))
	seqS := time.Since(t0).Seconds()
	o.attempted++
	if err != nil {
		o.fail("sequential reference sweep: %v", err)
	} else {
		for i, sw := range sweeps {
			if sw != nil {
				o.check(sameSweep(sw, ref), "sweep %d differs from the sequential (Parallelism 1) reference", i)
			}
		}
		for _, s := range ref.Series {
			e.note("series %-24s %v", s.Name, s.Points)
		}
	}
	calls := sweepCalls()
	o.set("calls_per_s", float64(calls)*float64(len(ds))/sum(ds), "1/s")
	opMetrics(e, o, ds)
	e.note("sweep_s median %.4f over %d sweeps (%d calls simulated per sweep); sequential reference %.4f s on 1 worker vs %d workers",
		median(ds), len(ds), calls, seqS, runtime.GOMAXPROCS(0))
	return o, nil
}

// sameSweep reports whether two sweeps agree bit for bit.
func sameSweep(a, b *experiments.Sweep) bool {
	if len(a.Series) != len(b.Series) {
		return false
	}
	for i := range a.Series {
		sa, sb := a.Series[i], b.Series[i]
		if sa.Name != sb.Name || len(sa.Points) != len(sb.Points) {
			return false
		}
		for j := range sa.Points {
			pa, pb := sa.Points[j], sb.Points[j]
			if math.Float64bits(pa.X) != math.Float64bits(pb.X) ||
				math.Float64bits(pa.Y) != math.Float64bits(pb.Y) ||
				math.Float64bits(pa.Err) != math.Float64bits(pb.Err) {
				return false
			}
		}
	}
	return true
}

// sweepCalls counts the offered calls one sweep simulates: every trace's
// arrivals inside the measurement window, once per policy.
func sweepCalls() int64 {
	nominal, _, err := traffic.NSFNetNominal()
	if err != nil {
		return 0
	}
	p := sweepParams(0)
	horizon := warmup + 100 // SimParams defaults
	var n int64
	for _, x := range sweepLoads {
		m := nominal.Scaled(x / 10)
		for seed := 0; seed < p.Seeds; seed++ {
			for _, c := range sim.GenerateTrace(m, horizon, int64(seed)).Calls {
				if c.Arrival >= warmup {
					n += 3
				}
			}
		}
	}
	return n
}

// sweepJobs re-runs one sweep's jobs from the benchmark on one worker, with
// a span around every call into a layer: per load point core.New (with the
// sweep's shared Erlang cache), per seed GenerateTrace and one Run per
// policy, and the Erlang bound. It returns the summed job time.
func sweepJobs(e *env, parent int) (time.Duration, int, error) {
	nominal, _, err := traffic.NSFNetNominal()
	if err != nil {
		return 0, 0, err
	}
	g := netmodel.NSFNet()
	cache := erlang.NewCache()
	horizon := warmup + 100
	var busy time.Duration
	jobs := 0
	for _, x := range sweepLoads {
		m := nominal.Scaled(x / 10)
		var sc *core.Scheme
		busy += e.tr.timed("core.New", parent, func(int) {
			sc, err = core.New(g, m, core.Options{H: nsfnetH, ErlangCache: cache})
		})
		jobs++
		if err != nil {
			return 0, 0, err
		}
		pols := []sim.Policy{sc.SinglePath(), sc.Uncontrolled(), sc.Controlled()}
		for seed := 0; seed < sweepSeeds; seed++ {
			var tr *sim.Trace
			busy += e.tr.timed("sim.GenerateTrace", parent, func(int) { tr = sim.GenerateTrace(m, horizon, int64(seed)) })
			jobs++
			for _, pol := range pols {
				busy += e.tr.timed("sim.Run", parent, func(int) {
					_, err = sim.Run(sim.Config{Graph: g, Policy: pol, Trace: tr, Warmup: warmup})
				})
				jobs++
				if err != nil {
					return 0, 0, err
				}
			}
		}
		busy += e.tr.timed("bound.ErlangBound", parent, func(int) { _, err = bound.ErlangBound(g, m) })
		jobs++
		if err != nil {
			return 0, 0, err
		}
	}
	return busy, jobs, nil
}
