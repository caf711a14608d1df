package main

import (
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// Each workload's traced run is its probes (probeLayers) plus a traced
// pass: the workload's own operation, repeated untraced and then with a
// span around every call into a layer. The difference between the two is
// the tracing overhead; the traced pass is also what the layer sum is
// reconciled against, and the part of it the layers do not explain is
// reported as recon.unexplained_share.

// passTime is how long each half of a traced pass runs.
func passTime(e *env) time.Duration {
	d := time.Duration(e.seconds / 4 * float64(time.Second))
	return min(max(d, 500*time.Millisecond), 2*time.Second)
}

// tracedPass runs op for passTime untraced, then for passTime with a span
// named layer around each call under a root span. It returns the mean
// untraced and traced durations, the summed span time, the traced wall
// time and the number of traced calls.
func tracedPass(e *env, root, layer string, op func() error) (untraced, traced, busy, wall time.Duration, n int, err error) {
	budget := passTime(e)
	var ds []float64
	for t0 := time.Now(); time.Since(t0) < budget || len(ds) < 2; {
		c0 := time.Now()
		if err = op(); err != nil {
			return
		}
		ds = append(ds, float64(time.Since(c0)))
	}
	untraced = time.Duration(mean(ds))
	h := e.tr.begin(root, 0, 0)
	t0 := time.Now()
	for time.Since(t0) < budget || n < 2 {
		busy += e.tr.timed(layer, h, func(int) { err = op() })
		n++
		if err != nil {
			return
		}
	}
	wall = time.Since(t0)
	e.tr.end(h)
	traced = busy / time.Duration(n)
	return
}

// finishTrace sets the metrics every traced run shares.
func finishTrace(e *env, o *outcome, untraced, traced time.Duration, layerNs, tracedNs, efficiency float64, jobs int) {
	o.set("trace.overhead_share", float64(traced-untraced)/float64(untraced), "ratio")
	o.set("recon.unexplained_share", (tracedNs-layerNs)/tracedNs, "ratio")
	o.set("experiments.parallel_efficiency", efficiency, "ratio")
	o.set("experiments.jobs", float64(jobs), "count")
	o.set("trace.spans", float64(e.tr.count()), "count")
	e.note("reconciliation: traced pass %.1f ns per unit, layer sum %.1f, unexplained %.1f (%.2f%%); tracing overhead %+.2f%%",
		tracedNs, layerNs, tracedNs-layerNs, 100*(tracedNs-layerNs)/tracedNs, 100*float64(traced-untraced)/float64(untraced))
}

// replayTraced: the layer sum for a replayed call is the engine's admit,
// its release (per released call) and the loop's residual; the traced
// pass is sim.Run again.
func replayTraced(e *env, o *outcome, in *simInputs) error {
	p, err := probeLayers(e, o, in)
	if err != nil {
		return err
	}
	cfg := sim.Config{Graph: in.g, Policy: in.pol, Trace: in.tr, Warmup: warmup}
	untr, tr, busy, wall, n, err := tracedPass(e, "workload.nsfnet-replay", "sim.Run", func() error {
		_, err := sim.Run(cfg)
		return err
	})
	if err != nil {
		return err
	}
	// Admit, release and the residual add up to the sim.Run probe by
	// construction (the residual is the rest), so recon.unexplained_share
	// here only measures how well the traced pass repeats the probe. The
	// split's own signal is the residual's sign: negative means the engine
	// proxy costs more per call than the simulator's fused loop.
	residual := p.runNs - p.admitNs - p.releaseNs*p.releasesPerCall
	e.note("replay layers per call: engine admit %.1f ns + release %.1f ns x %.3f + residual %.1f ns (%.1f%% of the run) = sim.Run %.1f ns",
		p.admitNs, p.releaseNs, p.releasesPerCall, residual, 100*residual/p.runNs, p.runNs)
	if residual < 0 {
		e.note("residual negative: the engine proxy costs more per call than the simulator's loop")
	}
	finishTrace(e, o, untr, tr, p.runNs, float64(tr.Nanoseconds())/float64(p.calls), busy.Seconds()/wall.Seconds(), n)
	return nil
}

// sweepTraced: the sweep's jobs are re-run on one worker with a span
// around each layer call. Parallel efficiency is their summed time over
// the parallel sweep's wall time times its workers; the layer sum is
// reconciled against the sequential sweep.
func sweepTraced(e *env, o *outcome) error {
	in, err := nsfnetInputs(0, warmup+100)
	if err != nil {
		return err
	}
	if _, err := probeLayers(e, o, in); err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := experiments.NSFNetSweep(sweepLoads, nsfnetH, false, sweepParams(0)); err != nil {
		return err
	}
	par := time.Since(t0)
	t0 = time.Now()
	if _, err := experiments.NSFNetSweep(sweepLoads, nsfnetH, false, sweepParams(1)); err != nil {
		return err
	}
	seq := time.Since(t0)
	h := e.tr.begin("workload.nsfnet-sweep", 0, 0)
	t0 = time.Now()
	busy, jobs, err := sweepJobs(e, h)
	traced := time.Since(t0)
	e.tr.end(h)
	if err != nil {
		return err
	}
	workers := runtime.GOMAXPROCS(0)
	e.note("sweep: parallel %.1f ms on %d workers, sequential %.1f ms, traced jobs %.1f ms summed over %d jobs",
		ms(par), workers, ms(seq), ms(busy), jobs)
	finishTrace(e, o, seq, traced, float64(busy.Nanoseconds()), float64(seq.Nanoseconds()),
		busy.Seconds()/(par.Seconds()*float64(workers)), jobs)
	return nil
}
