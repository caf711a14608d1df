// benchguard is the CI throughput tripwire: it reads `go test -bench`
// output on stdin, extracts the guarded metrics (calls/sec figures from
// the simulation-core benchmarks), and compares the best observed number
// per metric against the recorded baseline JSON. It exits nonzero when
// any guarded metric regresses past its floor.
//
// Metrics are selected from a fixed allowlist with the repeatable
// -metric flag, each optionally carrying its own regression budget:
//
//	benchguard -baseline BENCH_sim.json -metric stream -metric replay=0.25
//
// selects the stream metric at the global -max-regress and the replay
// metric at a tighter 25%. Without -metric flags the guard checks the
// classic pair (stream, replay) for backward compatibility.
//
// The input is echoed to stdout unchanged so CI logs keep the full
// benchmark output. Best-of-count comparison plus generous thresholds
// make the guard robust to the noise of short -benchtime runs; it is a
// tripwire for large regressions, not a precision benchmark — update the
// recorded baseline from a full `make bench` when the engine changes.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metricDef places one guardable metric: which benchmark and
// sub-benchmark (none when variant is empty) report it, the go-bench
// custom unit carrying the value, and the key holding its recorded
// numbers under "optimized" in the baseline file. All current metrics
// are throughputs (higher is better).
type metricDef struct {
	bench   string
	variant string
	unit    string
	key     string
}

// name is the benchmark's name as go test prints it, less the
// GOMAXPROCS suffix.
func (d metricDef) name() string {
	if d.variant == "" {
		return d.bench
	}
	return d.bench + "/" + d.variant
}

// metricDefs is the allowlist of guardable metrics. stream/replay are the
// classic end-to-end throughput pair (BENCH_sim.json); shard-seq and
// shard-multi guard the sharded engine on the metro scenario
// (BENCH_shard.json): shards=1 is the no-overhead contract (the request
// must dispatch to the sequential engine at sequential speed), shards=4
// the conservative-PDES loop itself. gentrace guards materialized trace
// generation, GenerateTrace on the NSFNet nominal matrix (BENCH_sim.json).
var metricDefs = map[string]metricDef{
	"gentrace":    {bench: "BenchmarkTraceGenerationNSFNet", unit: "calls/sec", key: "trace_gen_calls_per_sec"},
	"stream":      {bench: "BenchmarkRunCalls", variant: "stream", unit: "calls/sec", key: "run_calls_stream_calls_per_sec"},
	"replay":      {bench: "BenchmarkRunCalls", variant: "replay", unit: "calls/sec", key: "run_calls_replay_calls_per_sec"},
	"shard-seq":   {bench: "BenchmarkRunShardedCalls", variant: "shards=1", unit: "calls/sec", key: "run_sharded_seq_calls_per_sec"},
	"shard-multi": {bench: "BenchmarkRunShardedCalls", variant: "shards=4", unit: "calls/sec", key: "run_sharded_multi_calls_per_sec"},
}

func metricNames() []string {
	names := make([]string, 0, len(metricDefs))
	for n := range metricDefs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// selection is one guarded metric: its allowlist name plus the
// regression budget it is held to (the per-metric floor).
type selection struct {
	name    string
	regress float64
}

// metricFlags parses repeated -metric values of the form "name" or
// "name=maxRegress". A negative regress means "use the global
// -max-regress"; resolve() pins it once flags are parsed.
type metricFlags struct {
	sels []selection
}

func (m *metricFlags) String() string {
	parts := make([]string, len(m.sels))
	for i, s := range m.sels {
		parts[i] = s.name
	}
	return strings.Join(parts, ",")
}

func (m *metricFlags) Set(v string) error {
	name, frac, hasFrac := strings.Cut(v, "=")
	if _, ok := metricDefs[name]; !ok {
		return fmt.Errorf("unknown metric %q (allowed: %s)", name, strings.Join(metricNames(), ", "))
	}
	for _, s := range m.sels {
		if s.name == name {
			return fmt.Errorf("metric %q selected twice", name)
		}
	}
	sel := selection{name: name, regress: -1}
	if hasFrac {
		f, err := strconv.ParseFloat(frac, 64)
		if err != nil || f < 0 || f >= 1 {
			return fmt.Errorf("metric %q: max-regress %q must be a fraction in [0, 1)", name, frac)
		}
		sel.regress = f
	}
	m.sels = append(m.sels, sel)
	return nil
}

// resolve fills defaults: no -metric flags selects the classic pair, and
// metrics without their own budget inherit the global one.
func (m *metricFlags) resolve(maxRegress float64) []selection {
	sels := m.sels
	if len(sels) == 0 {
		sels = []selection{{name: "replay", regress: -1}, {name: "stream", regress: -1}}
	}
	out := make([]selection, len(sels))
	for i, s := range sels {
		if s.regress < 0 {
			s.regress = maxRegress
		}
		out[i] = s
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// parseBench scans benchmark output for the selected metrics, echoing
// every line to echo, and returns the best observed value per metric
// name.
func parseBench(r io.Reader, echo io.Writer, sels []selection) (map[string]float64, error) {
	best := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if echo != nil {
			fmt.Fprintln(echo, line)
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		// The name field carries a "-<GOMAXPROCS>" suffix except on a
		// single-CPU host.
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i >= 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		for _, s := range sels {
			def := metricDefs[s.name]
			if name != def.name() {
				continue
			}
			for i := 1; i < len(fields); i++ {
				if fields[i] != def.unit {
					continue
				}
				v, err := strconv.ParseFloat(fields[i-1], 64)
				if err != nil {
					return nil, fmt.Errorf("unparsable %s in %q: %v", def.unit, line, err)
				}
				if v > best[s.name] {
					best[s.name] = v
				}
				break
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return best, nil
}

// baselineBest extracts the best recorded value per selected metric from
// the baseline file's "optimized" block, accepting both a single number
// and a best-of-count array per key.
func baselineBest(data []byte, sels []selection) (map[string]float64, error) {
	var file struct {
		Optimized map[string]json.RawMessage `json:"optimized"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, s := range sels {
		key := metricDefs[s.name].key
		raw, ok := file.Optimized[key]
		if !ok {
			return nil, fmt.Errorf("baseline is missing optimized.%s", key)
		}
		var vals []float64
		if err := json.Unmarshal(raw, &vals); err != nil {
			var v float64
			if err := json.Unmarshal(raw, &v); err != nil {
				return nil, fmt.Errorf("optimized.%s is neither a number nor an array", key)
			}
			vals = []float64{v}
		}
		b := 0.0
		for _, v := range vals {
			if v > b {
				b = v
			}
		}
		if b <= 0 {
			return nil, fmt.Errorf("optimized.%s has no positive value", key)
		}
		out[s.name] = b
	}
	return out, nil
}

// check compares observed against baseline under each metric's own
// regression budget and returns one human-readable verdict line per
// metric plus the overall pass/fail. Missing metrics fail: a guard that
// matched no benchmark output must not pass vacuously.
func check(observed, baseline map[string]float64, sels []selection) ([]string, bool) {
	var lines []string
	ok := true
	for _, s := range sels {
		def := metricDefs[s.name]
		base := baseline[s.name]
		got, seen := observed[s.name]
		if !seen {
			lines = append(lines, fmt.Sprintf("benchguard: %s: no %s result in input", s.name, def.name()))
			ok = false
			continue
		}
		floor := base * (1 - s.regress)
		delta := got/base - 1
		verdict := "ok"
		if got < floor {
			verdict = fmt.Sprintf("FAIL (below the %.0f%% floor %.0f)", 100*(1-s.regress), floor)
			ok = false
		}
		lines = append(lines, fmt.Sprintf("benchguard: %s: %.0f %s vs baseline %.0f (%+.1f%%): %s",
			s.name, got, def.unit, base, 100*delta, verdict))
	}
	return lines, ok
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_sim.json", "recorded benchmark baseline to compare against")
	maxRegress := flag.Float64("max-regress", 0.30, "default maximum tolerated regression as a fraction")
	var metrics metricFlags
	flag.Var(&metrics, "metric", "metric to guard, `name[=maxRegress]` (repeatable; allowed: "+
		strings.Join(metricNames(), ", ")+"; default: replay, stream)")
	flag.Parse()
	if *maxRegress < 0 || *maxRegress >= 1 {
		fmt.Fprintln(os.Stderr, "benchguard: -max-regress must be in [0, 1)")
		os.Exit(2)
	}
	sels := metrics.resolve(*maxRegress)
	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	baseline, err := baselineBest(data, sels)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %s: %v\n", *baselinePath, err)
		os.Exit(2)
	}
	observed, err := parseBench(os.Stdin, os.Stdout, sels)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	lines, ok := check(observed, baseline, sels)
	for _, l := range lines {
		fmt.Fprintln(os.Stderr, l)
	}
	if !ok {
		os.Exit(1)
	}
}
