package main

import (
	"bytes"
	"container/heap"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"repro/internal/bound"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/erlang"
	"repro/internal/estimate"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/obs/timeseries"
	"repro/internal/policy"
	"repro/internal/sim"
)

// The traced run times the benchmark's own calls into each layer's public
// functions, on the workload's own generated inputs, with a span around
// every call. A layer whose cost is nested inside another call is reported
// as the difference of two such calls (its self time): obs emission is a
// run with a no-op sink minus a run with none, the decision queue is
// ctrl.Server.Admit minus ctrl.Engine.Admit, the wire is ServeHTTP minus
// Server.Admit, and loopback is the client's admit latency minus ServeHTTP.

const (
	probeMin      = 250 * time.Millisecond // minimum timed work per probe
	recordCap     = 300_000                // events kept for the sink probes
	wirePrefix    = 20_000                 // requests driven through ServeHTTP
	serverPrefix  = 100_000                // requests driven through Server
	lowAdmitRate  = 2000.0                 // admits per wall second, the low step
	probeStepSecs = 1.0                    // measured seconds of the loopback probe
	warmModel     = 2.0                    // model units of warm-up before the step measures
)

// probes carries the layer numbers the workload's reconciliation needs.
type probes struct {
	calls           int
	runNs           float64 // sim.Run per call, nil sink
	admitNs         float64 // ctrl.Engine.Admit per admit
	releaseNs       float64 // ctrl.Engine.Release per release
	releasesPerCall float64
}

// repeatFor times fn and returns its mean duration per call. The first
// call is a warm-up and is discarded unless it alone took probeMin. Calls
// are timed in batches, one span per batch, with the batch doubling until
// it lasts a millisecond, so that the clock and the span cost nothing next
// to a call of a microsecond. At least minReps timed calls and probeMin of
// timed work are done.
func repeatFor(e *env, name string, parent, minReps int, fn func() error) (time.Duration, int, error) {
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	if err != nil {
		return 0, 1, fmt.Errorf("%s: %w", name, err)
	}
	if first := t1.Sub(t0); first >= probeMin {
		e.tr.record(name, parent, 0, t0, t1)
		return first, 1, nil
	}
	e.tr.record(name+" (warm-up)", parent, 0, t0, t1)
	var total time.Duration
	reps, batch := 0, 1
	for reps < minReps || total < probeMin {
		d := e.tr.timed(name, parent, func(int) {
			for i := 0; i < batch && err == nil; i++ {
				err = fn()
			}
		})
		if err != nil {
			return 0, reps, fmt.Errorf("%s: %w", name, err)
		}
		total += d
		reps += batch
		if d < time.Millisecond {
			batch *= 2
		}
	}
	return total / time.Duration(reps), reps, nil
}

// countSink counts events.
type countSink struct{ n int64 }

func (c *countSink) Event(obs.Event) { c.n++ }

// recordSink keeps the first recordCap events.
type recordSink struct{ evs []obs.Event }

func (r *recordSink) Event(ev obs.Event) {
	if len(r.evs) < recordCap {
		r.evs = append(r.evs, ev)
	}
}

// probeLayers runs every layer probe on the workload's inputs: in.tr is
// the trace the probes replay. It sets every per-layer metric except the
// ones the workload's own traced pass provides (trace.*, recon.*,
// experiments.*) and returns the numbers that pass reconciles against.
func probeLayers(e *env, o *outcome, in *simInputs) (*probes, error) {
	root := e.tr.begin("probe", 0, 0)
	defer e.tr.end(root)
	p := &probes{calls: len(in.tr.Calls)}
	calls := float64(p.calls)
	cfg := sim.Config{Graph: in.g, Policy: in.pol, Trace: in.tr, Warmup: warmup}

	// sim.Run, nil sink: time, allocations and bytes.
	var res *sim.Result
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	d, reps, err := repeatFor(e, "sim.Run", root, 2, func() (err error) { res, err = sim.Run(cfg); return })
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}
	p.runNs = float64(d.Nanoseconds()) / calls
	o.set("sim.run.ns_per_call", p.runNs, "ns")
	o.set("sim.run.allocs_per_run", float64(ms1.Mallocs-ms0.Mallocs)/float64(reps), "count")
	o.set("sim.run.bytes_per_call", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(reps)/calls, "B")
	o.set("sim.inflight.mean", res.Throughput(), "calls")
	o.set("sim.accept_ratio", float64(res.Accepted)/float64(res.Offered), "ratio")
	o.set("sim.alternate_share", float64(res.AlternateAccepted)/float64(max(res.Accepted, 1)), "ratio")

	// Event emission: the same run with a sink that does nothing.
	nullCfg := cfg
	nullCfg.Sink = obs.NullSink{}
	d, _, err = repeatFor(e, "sim.Run+NullSink", root, 2, func() error { _, err := sim.Run(nullCfg); return err })
	if err != nil {
		return nil, err
	}
	o.set("obs.emit.ns_per_call", float64(d.Nanoseconds())/calls-p.runNs, "ns")
	cnt, rec := &countSink{}, &recordSink{}
	countCfg := cfg
	countCfg.Sink = obs.Multi(cnt, rec)
	if _, err := sim.Run(countCfg); err != nil {
		return nil, err
	}
	o.set("obs.events_per_call", float64(cnt.n)/calls, "count")

	// The sinks themselves, over the recorded events.
	evs := rec.evs
	d, _, err = repeatFor(e, "obs.Registry.Event", root, 2, func() error {
		reg := obs.NewRegistry()
		for _, ev := range evs {
			reg.Event(ev)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.set("obs.registry.ns_per_event", float64(d.Nanoseconds())/float64(len(evs)), "ns")
	d, _, err = repeatFor(e, "timeseries.Folder.Event", root, 2, func() error {
		f, err := timeseries.New(timeseries.Options{Width: 5, Capacity: 256})
		if err != nil {
			return err
		}
		for _, ev := range evs {
			f.Event(ev)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.set("timeseries.fold.ns_per_event", float64(d.Nanoseconds())/float64(len(evs)), "ns")

	// Arrival generation: a stream drained with Next alone, and a trace.
	var n int
	d, _, err = repeatFor(e, "sim.NewStream+Next", root, 1, func() error {
		s, err := sim.NewStream(in.m, in.horizon, in.seed)
		if err != nil {
			return err
		}
		for n = 0; ; n++ {
			if _, ok := s.Next(); !ok {
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.set("sim.stream.ns_per_call", float64(d.Nanoseconds())/float64(max(n, 1)), "ns")
	d, _, err = repeatFor(e, "sim.GenerateTrace", root, 1, func() error {
		sim.GenerateTrace(in.m, in.horizon, in.seed)
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.set("sim.gentrace.ms", ms(d), "ms")

	if err := probeDerivation(e, o, in, root); err != nil {
		return nil, err
	}
	if err := probeControl(e, o, in, res, p, root); err != nil {
		return nil, err
	}
	return p, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// probeDerivation times scheme derivation: core.New, the route table,
// Equation 15 with a fresh and with a shared Erlang cache, and the Erlang
// bound.
func probeDerivation(e *env, o *outcome, in *simInputs, root int) error {
	d, _, err := repeatFor(e, "core.New", root, 1, func() error {
		_, err := core.New(in.g, in.m, core.Options{H: in.h})
		return err
	})
	if err != nil {
		return err
	}
	o.set("core.new.ms", ms(d), "ms")
	d, _, err = repeatFor(e, "policy.BuildMinHop", root, 1, func() error {
		_, err := policy.BuildMinHop(in.g, in.h)
		return err
	})
	if err != nil {
		return err
	}
	o.set("policy.build_minhop.ms", ms(d), "ms")

	caps := make([]int, in.g.NumLinks())
	for id := range caps {
		caps[id] = in.g.Link(graph.LinkID(id)).Capacity
	}
	loads, hops := in.sc.LinkLoads, in.sc.Table.MaxAltHops
	d, _, err = repeatFor(e, "erlang.ProtectionLevels(cold)", root, 3, func() error {
		erlang.ProtectionLevels(loads, caps, hops, erlang.NewCache())
		return nil
	})
	if err != nil {
		return err
	}
	o.set("erlang.protection_levels.us.cold", us(d), "us")
	shared := erlang.NewCache()
	erlang.ProtectionLevels(loads, caps, hops, shared)
	d, _, err = repeatFor(e, "erlang.ProtectionLevels(shared)", root, 3, func() error {
		erlang.ProtectionLevels(loads, caps, hops, shared)
		return nil
	})
	if err != nil {
		return err
	}
	o.set("erlang.protection_levels.us.shared", us(d), "us")
	d, _, err = repeatFor(e, "bound.ErlangBound", root, 1, func() error {
		_, err := bound.ErlangBound(in.g, in.m)
		return err
	})
	if err != nil {
		return err
	}
	o.set("bound.erlang_bound.ms", ms(d), "ms")

	a := in.sc.Adaptive(core.AdaptRederive, nil)
	st := sim.NewState(in.g)
	est := make([]float64, len(loads))
	k := 0
	d, _, err = repeatFor(e, "core.AdaptiveScheme.RederiveFromLoads", root, 3, func() error {
		// Fresh estimates every epoch, as the live estimator supplies.
		k++
		for i, l := range loads {
			est[i] = l * (1 + 0.001*float64(k%50))
		}
		if !a.RederiveFromLoads(st, est) {
			return errors.New("rederivation refused")
		}
		return nil
	})
	if err != nil {
		return err
	}
	o.set("core.rederive_from_loads.us", us(d), "us")
	return nil
}

// ctrlEvent is one request of the replayed admit/release sequence.
type ctrlEvent struct {
	release bool
	id      int64
	o, d    graph.NodeID
	at      float64
}

// depHeap orders booked departures.
type depHeap []ctrlEvent

func (h depHeap) Len() int           { return len(h) }
func (h depHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h depHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *depHeap) Push(x any)        { *h = append(*h, x.(ctrlEvent)) }
func (h *depHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// ctrlSequence drives a fresh engine over the trace once, booking each
// admitted call's departure itself, and returns the resulting request
// sequence: one admit per arrival and one release per admitted call, a
// departure before an arrival at an equal epoch, as the simulator drains
// them. It also checks the engine's decisions inside the measurement
// window against the simulator's Result.
func ctrlSequence(o *outcome, in *simInputs, tc sim.TableCompiler, res *sim.Result) ([]ctrlEvent, error) {
	eng, err := ctrl.NewEngine(in.g, nil, tc, nil)
	if err != nil {
		return nil, err
	}
	seq := make([]ctrlEvent, 0, 2*len(in.tr.Calls))
	deps := &depHeap{}
	var offered, blocked, alt int64
	for _, c := range in.tr.Calls {
		for deps.Len() > 0 && (*deps)[0].at <= c.Arrival {
			r := heap.Pop(deps).(ctrlEvent)
			if err := eng.Release(r.id); err != nil {
				return nil, err
			}
			seq = append(seq, r)
		}
		dec, err := eng.Admit(c.Arrival, int64(c.ID), c.Origin, c.Dest)
		if err != nil {
			return nil, err
		}
		seq = append(seq, ctrlEvent{id: int64(c.ID), o: c.Origin, d: c.Dest, at: c.Arrival})
		if c.Arrival >= warmup {
			offered++
			if !dec.Admitted {
				blocked++
			} else if dec.Alternate {
				alt++
			}
		}
		if dec.Admitted {
			heap.Push(deps, ctrlEvent{release: true, id: int64(c.ID), at: c.Arrival + c.Holding})
		}
	}
	for deps.Len() > 0 {
		r := heap.Pop(deps).(ctrlEvent)
		if err := eng.Release(r.id); err != nil {
			return nil, err
		}
		seq = append(seq, r)
	}
	o.check(offered == res.Offered && blocked == res.Blocked && alt == res.AlternateAccepted,
		"ctrl.Engine replay (offered %d, blocked %d, alternates %d) differs from sim.Run (%d, %d, %d)",
		offered, blocked, alt, res.Offered, res.Blocked, res.AlternateAccepted)
	return seq, nil
}

// probeControl times the control plane on the workload's request sequence:
// the engine, the server's decision loop, the HTTP handler, and an
// open-loop step over loopback.
func probeControl(e *env, o *outcome, in *simInputs, res *sim.Result, p *probes, root int) error {
	tc, ok := in.pol.(sim.TableCompiler)
	if !ok {
		return errors.New("controlled policy does not compile")
	}
	seq, err := ctrlSequence(o, in, tc, res)
	if err != nil {
		return err
	}
	var admits, releases int
	for _, ev := range seq {
		if ev.release {
			releases++
		} else {
			admits++
		}
	}
	p.releasesPerCall = float64(releases) / float64(p.calls)

	// Engine: one pass without clocks gives the total; a pass timing each
	// call gives the admit/release split of that total.
	pass := func(timeEach bool) (total, admitT, releaseT time.Duration, err error) {
		eng, err := ctrl.NewEngine(in.g, nil, tc, nil)
		if err != nil {
			return 0, 0, 0, err
		}
		t0 := time.Now()
		for _, ev := range seq {
			var c0 time.Time
			if timeEach {
				c0 = time.Now()
			}
			if ev.release {
				err = eng.Release(ev.id)
				if timeEach {
					releaseT += time.Since(c0)
				}
			} else {
				_, err = eng.Admit(ev.at, ev.id, ev.o, ev.d)
				if timeEach {
					admitT += time.Since(c0)
				}
			}
			if err != nil {
				return 0, 0, 0, err
			}
		}
		return time.Since(t0), admitT, releaseT, nil
	}
	var total, admitT, releaseT time.Duration
	nPass := 0
	if _, _, err := repeatFor(e, "ctrl.Engine.Admit+Release", root, 2, func() error {
		t, _, _, err := pass(false)
		total += t
		nPass++
		return err
	}); err != nil {
		return err
	}
	if _, _, err := repeatFor(e, "ctrl.Engine.Admit+Release(per-call clocks)", root, 1, func() error {
		_, a, r, err := pass(true)
		admitT += a
		releaseT += r
		return err
	}); err != nil {
		return err
	}
	share := float64(admitT) / float64(admitT+releaseT)
	perPass := float64(total.Nanoseconds()) / float64(nPass)
	p.admitNs = perPass * share / float64(admits)
	p.releaseNs = perPass * (1 - share) / float64(max(releases, 1))
	o.set("ctrl.engine.admit_ns", p.admitNs, "ns")
	o.set("ctrl.engine.release_ns", p.releaseNs, "ns")
	o.set("sim.residual.ns_per_call", p.runNs-p.admitNs-p.releaseNs*p.releasesPerCall, "ns")

	eng, err := ctrl.NewEngine(in.g, nil, tc, nil)
	if err != nil {
		return err
	}
	d, _, err := repeatFor(e, "ctrl.Engine.Recompile", root, 3, func() error {
		if !eng.Recompile() {
			return errors.New("recompile failed")
		}
		return nil
	})
	if err != nil {
		return err
	}
	o.set("ctrl.engine.recompile.us", us(d), "us")

	// Server: in-process, one client, the replay-equivalence configuration.
	srv, err := ctrl.NewServer(ctrl.Config{Graph: in.g, Policy: tc})
	if err != nil {
		return err
	}
	srv.Start()
	var srvAdmit time.Duration
	nAdmit := 0
	sp := e.tr.begin("ctrl.Server.Admit+Release", root, 0)
	for _, ev := range seq[:min(len(seq), serverPrefix)] {
		if ev.release {
			err = srv.Release(ev.id, ev.at, true)
		} else {
			c0 := time.Now()
			_, err = srv.Admit(ev.id, ev.o, ev.d, ev.at, true)
			srvAdmit += time.Since(c0)
			nAdmit++
		}
		if err != nil {
			break
		}
	}
	e.tr.end(sp)
	srv.Shutdown()
	if err != nil {
		return fmt.Errorf("server probe: %w", err)
	}
	srvNs := float64(srvAdmit.Nanoseconds()) / float64(nAdmit)
	o.set("ctrl.server.admit_ns", srvNs, "ns")
	o.set("ctrl.server.queue_ns", srvNs-p.admitNs, "ns")

	wireP50, err := probeWire(e, o, in, tc, seq, srvNs, root)
	if err != nil {
		return err
	}
	return probeLoopback(e, o, in, wireP50, root)
}

// probeWire drives a prefix of the sequence through the control API's
// ServeHTTP with a recorder and pre-encoded bodies, and returns the p50
// of an admit in microseconds.
func probeWire(e *env, o *outcome, in *simInputs, tc sim.TableCompiler, seq []ctrlEvent, srvNs float64, root int) (float64, error) {
	srv, err := ctrl.NewServer(ctrl.Config{Graph: in.g, Policy: tc})
	if err != nil {
		return 0, err
	}
	srv.Start()
	defer srv.Shutdown()
	mux := srv.Mux()
	seq = seq[:min(len(seq), wirePrefix)]
	reqs := make([]*http.Request, len(seq))
	recs := make([]*httptest.ResponseRecorder, len(seq))
	for i, ev := range seq {
		var b []byte
		path := "/admit"
		if ev.release {
			path = "/release"
			b = fmt.Appendf(b, `{"id":%d,"at":%s}`, ev.id, strconv.FormatFloat(ev.at, 'g', -1, 64))
		} else {
			b = fmt.Appendf(b, `{"id":%d,"from":%q,"to":%q,"at":%s}`, ev.id,
				in.g.NodeName(ev.o), in.g.NodeName(ev.d), strconv.FormatFloat(ev.at, 'g', -1, 64))
		}
		reqs[i] = httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
		recs[i] = httptest.NewRecorder()
	}
	var admitDs []float64
	var ms0, ms1 runtime.MemStats
	sp := e.tr.begin("ctrl.Server.Mux.ServeHTTP", root, 0)
	runtime.ReadMemStats(&ms0)
	for i := range seq {
		c0 := time.Now()
		mux.ServeHTTP(recs[i], reqs[i])
		if !seq[i].release {
			admitDs = append(admitDs, float64(time.Since(c0).Nanoseconds()))
		}
	}
	runtime.ReadMemStats(&ms1)
	e.tr.end(sp)
	for i := range seq {
		o.check(recs[i].Code == http.StatusOK, "ServeHTTP request %d: status %d", i, recs[i].Code)
	}
	o.set("ctrl.wire.admit_ns", mean(admitDs)-srvNs, "ns")
	o.set("ctrl.wire.allocs_per_decision", float64(ms1.Mallocs-ms0.Mallocs)/float64(len(seq)), "count")
	return percentile(sortedCopy(admitDs), 50) / 1e3, nil
}

// probeLoopback serves the workload's scheme from an in-process control
// server configured as cmd/altd configures it (estimator, adaptive
// protection, registry and time-series sink) over loopback HTTP, and runs
// one open-loop step at the low rate against it.
func probeLoopback(e *env, o *outcome, in *simInputs, wireP50 float64, root int) error {
	est, err := estimate.New(in.g, 5, 0.3)
	if err != nil {
		return err
	}
	adapt := in.sc.Adaptive(core.AdaptRederive, nil)
	tc, ok := adapt.Policy().(sim.TableCompiler)
	if !ok {
		return errors.New("adaptive policy does not compile")
	}
	fold, err := timeseries.New(timeseries.Options{Width: 5, Capacity: 256})
	if err != nil {
		return err
	}
	srv, err := ctrl.NewServer(ctrl.Config{Graph: in.g, Policy: tc, Estimator: est, Adapt: adapt,
		Sink: obs.Multi(obs.NewRegistry(), fold)})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv.Start()
	hs := &http.Server{Handler: srv.Mux()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	rate := lowAdmitRate / in.m.Total()
	warm := min(warmModel, 0.5*rate)
	sp := e.tr.begin("loadgen.step(in-process)", root, 0)
	r, err := runStep(context.Background(), stepSpec{
		url: "http://" + ln.Addr().String(), calls: in.tr.Calls, names: nodeNames(in.g),
		rate: rate, warm: warm, end: warm + rate*probeStepSecs, conns: runtime.NumCPU(),
		tr: e.tr,
	})
	e.tr.end(sp)
	st, serr := srv.Status()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	herr := hs.Shutdown(ctx)
	<-served
	srv.Shutdown()
	if err != nil {
		return err
	}
	if serr != nil || herr != nil {
		return fmt.Errorf("loopback probe: status %v, shutdown %v", serr, herr)
	}
	checkDrained(o, "in-process loopback step", r, st)
	if len(r.admitLat) == 0 || len(r.lag) == 0 {
		return errors.New("loopback probe measured no admit")
	}
	lat, lag := sortedCopy(r.admitLat), sortedCopy(r.lag)
	p50 := percentile(lat, 50)
	o.set("net.loopback_us", p50-wireP50, "us")
	o.set("loadgen.lag_us.p99", percentile(lag, 99), "us")
	o.set("loadgen.backlog.max", float64(r.backlogMax), "count")
	o.set("loadgen.admit_p50_us", p50, "us")
	o.set("loadgen.admit_p99_us", percentile(lat, 99), "us")
	o.set("ctrl.refreshes", float64(st.Refreshes), "count")
	o.set("ctrl.recompiles", float64(st.Metrics.Recompiles), "count")
	e.note("open-loop step: %d admits measured (p50 %.1f us, p99 %.1f us), lag p99 %.1f us over %d requests, backlog max %d (first quarter %.1f, last %.1f, growing %v), %d admitted (%d alternate), %d blocked, loopback %v",
		len(lat), p50, percentile(lat, 99), percentile(lag, 99), len(lag), r.backlogMax,
		r.backlogFirst, r.backlogLast, r.growing(runtime.NumCPU()), r.admitted, r.alternates, r.blocked, r.loopback)
	return nil
}

// checkDrained applies the drain checks to a step's server status: nothing
// in flight, no idle or unknown release, no duplicate admit, no fallback
// to the interpreted engine, every admit offered, and no failed request.
func checkDrained(o *outcome, step string, r *stepResult, st ctrl.Status) {
	m := st.Metrics
	o.attempted += r.attempted
	for _, msg := range r.errors {
		o.fail("%s: %s", step, msg)
	}
	for i := len(r.errors); i < int(r.failed); i++ {
		o.fail("%s: request failed", step)
	}
	o.check(m.InFlight == 0, "%s: in_flight %d after drain", step, m.InFlight)
	o.check(m.ReleaseIdle == 0, "%s: release_idle %d", step, m.ReleaseIdle)
	o.check(m.DuplicateAdmits == 0, "%s: duplicate_admits %d", step, m.DuplicateAdmits)
	o.check(m.UnknownReleases == 0, "%s: unknown_releases %d", step, m.UnknownReleases)
	o.check(m.FallbackDecisions == 0, "%s: fallback_decisions %d", step, m.FallbackDecisions)
	o.check(int64(m.Offered) == r.admitsSent, "%s: offered %d, admits sent %d", step, m.Offered, r.admitsSent)
	o.check(r.loopback, "%s: traffic did not stay on loopback", step)
}

func nodeNames(g *graph.Graph) []string {
	names := make([]string, g.NumNodes())
	for i := range names {
		names[i] = g.NodeName(graph.NodeID(i))
	}
	return names
}
