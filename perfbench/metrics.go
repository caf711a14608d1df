package main

// metricSpec declares one reported metric. BENCHMARK.json lists the same
// names, units and directions; the benchmark's tests hold the two equal.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd are the metrics of an untraced run. Every workload reports all
// of them. calls_per_s is throughput over the whole timed window (offered
// calls simulated ÷ summed operation time), so slow operations count in
// it; op_p50_ms is the median wall time of the unit of work a user of the
// workload waits for: one replay or one whole sweep. Tails are printed
// with their percentile and sample count but not bounded: see README.md.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"calls_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run, measured on the workload's own
// inputs. README.md names the end-to-end metric each should move.
var perLayer = []metricSpec{
	{"sim.run.ns_per_call", "ns", "lower"},
	{"sim.run.allocs_per_run", "count", "lower"},
	{"sim.run.bytes_per_call", "B", "lower"},
	{"sim.residual.ns_per_call", "ns", "lower"},
	{"sim.inflight.mean", "calls", "higher"},
	{"sim.accept_ratio", "ratio", "higher"},
	{"sim.alternate_share", "ratio", "lower"},
	{"sim.stream.ns_per_call", "ns", "lower"},
	{"sim.gentrace.ms", "ms", "lower"},
	{"obs.emit.ns_per_call", "ns", "lower"},
	{"obs.events_per_call", "count", "lower"},
	{"obs.registry.ns_per_event", "ns", "lower"},
	{"timeseries.fold.ns_per_event", "ns", "lower"},
	{"core.new.ms", "ms", "lower"},
	{"policy.build_minhop.ms", "ms", "lower"},
	{"erlang.protection_levels.us.cold", "us", "lower"},
	{"erlang.protection_levels.us.shared", "us", "lower"},
	{"bound.erlang_bound.ms", "ms", "lower"},
	{"experiments.parallel_efficiency", "ratio", "higher"},
	{"experiments.jobs", "count", "higher"},
	{"ctrl.engine.admit_ns", "ns", "lower"},
	{"ctrl.engine.release_ns", "ns", "lower"},
	{"ctrl.engine.recompile.us", "us", "lower"},
	{"ctrl.server.admit_ns", "ns", "lower"},
	{"ctrl.server.queue_ns", "ns", "lower"},
	{"ctrl.wire.admit_ns", "ns", "lower"},
	{"ctrl.wire.allocs_per_decision", "count", "lower"},
	{"net.loopback_us", "us", "lower"},
	{"core.rederive_from_loads.us", "us", "lower"},
	{"ctrl.refreshes", "count", "lower"},
	{"ctrl.recompiles", "count", "lower"},
	{"loadgen.lag_us.p99", "us", "lower"},
	{"loadgen.backlog.max", "count", "lower"},
	{"loadgen.admit_p50_us", "us", "lower"},
	{"loadgen.admit_p99_us", "us", "lower"},
	{"recon.unexplained_share", "ratio", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
	{"trace.spans", "count", "lower"},
}
