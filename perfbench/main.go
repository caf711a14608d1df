// Command perfbench is the repository's benchmark: it runs one named
// workload for a fixed time, checks the program's outputs, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench -workdir <dir> --workload nsfnet-replay --seed 1 --seconds 10 --trace 0
//
// perfbench/run.sh builds this program and then runs it. With
// --trace 0 the metrics are the end-to-end ones (see metrics.go); with
// --trace 1 a separate traced run times the benchmark's calls into each
// layer and reports the per-layer metrics, the self time of every span
// name, the reconciliation remainder and the tracing overhead. The exit
// code is nonzero when any output check fails.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload receives.
type env struct {
	seed    int64
	seconds float64
	workdir string // scratch directory inside the checkout
	out     io.Writer
	tr      *tracer // non-nil in the traced run
}

// outcome is what a workload returns: the operations it attempted, the
// ones that failed (errors and output-check mismatches, with a reason
// each), and its metrics.
type outcome struct {
	attempted int64
	failures  []string
	metrics   map[string]metric
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

func (o *outcome) set(name string, v float64, unit string) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records one failed operation.
func (o *outcome) fail(format string, a ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, a...))
}

// check records a failed output check when ok is false.
func (o *outcome) check(ok bool, format string, a ...any) {
	if !ok {
		o.fail(format, a...)
	}
}

// note prints one human-readable line ahead of the result line.
func (e *env) note(format string, a ...any) {
	fmt.Fprintf(e.out, "# "+format+"\n", a...)
}

// workload is one named benchmark workload.
type workload struct {
	name string
	why  string
	run  func(e *env) (*outcome, error)
}

var workloads = []workload{
	{"nsfnet-replay", "one NSFNet trace replayed through sim.Run with a nil sink: the event loop does all the timed work", runReplay},
	{"nsfnet-sweep", "experiments.NSFNetSweep at loads 8,10,12: the Erlang bound, trace generation and the worker pool dominate", runSweep},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed; reaches only generated inputs")
	seconds := fs.Float64("seconds", 10, "how long the run measures")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "scratch directory for span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	abs, err := filepath.Abs(*workdir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	bw := bufio.NewWriter(stdout)
	defer bw.Flush()
	e := &env{seed: *seed, seconds: *seconds, workdir: abs, out: bw}
	if *trace == 1 {
		e.tr = newTracer()
	}
	e.note("workload %s seed %d seconds %g trace %d: %s", w.name, *seed, *seconds, *trace, w.why)
	e.note("provenance %s", provenance())

	o, err := w.run(e)
	if err != nil {
		bw.Flush()
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	want := endToEnd
	if e.tr != nil {
		want = perLayer
		path := filepath.Join(abs, "spans", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		for _, lt := range e.tr.selfTimes() {
			e.note("self %-34s %8d spans %12.3f ms total %12.3f ms self", lt.Name, lt.Count, lt.TotalMs, lt.SelfMs)
		}
		if err := e.tr.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		e.note("spans written to %s", path)
	}
	if err := conforms(o.metrics, want); err != nil {
		bw.Flush()
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		e.note("metric %-36s %-16.6g %s", n, o.metrics[n].Value, o.metrics[n].Unit)
	}
	for _, f := range o.failures {
		e.note("FAILED %s", f)
	}
	rep := report{
		Correct:   len(o.failures) == 0,
		Attempted: o.attempted,
		Failed:    int64(len(o.failures)),
		Metrics:   o.metrics,
	}
	if rep.Attempted < 1 {
		rep.Attempted = 1
		rep.Correct = false
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(bw, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var s []string
	for _, w := range workloads {
		s = append(s, w.name)
	}
	return strings.Join(s, ", ")
}

// conforms checks that a run produced exactly the declared metric set,
// names and units in the grammar, and only finite values.
func conforms(got map[string]metric, want []metricSpec) error {
	if len(got) != len(want) {
		return fmt.Errorf("produced %d metrics, want %d", len(got), len(want))
	}
	for _, s := range want {
		if !validName(s.Name) || !validUnit(s.Unit) {
			return fmt.Errorf("metric %q with unit %q breaks the name grammar", s.Name, s.Unit)
		}
		m, ok := got[s.Name]
		if !ok {
			return fmt.Errorf("metric %s missing", s.Name)
		}
		if m.Unit != s.Unit {
			return fmt.Errorf("metric %s has unit %q, want %q", s.Name, m.Unit, s.Unit)
		}
		if m.Value != m.Value || m.Value > 1e300 || m.Value < -1e300 {
			return fmt.Errorf("metric %s is not finite: %v", s.Name, m.Value)
		}
	}
	return nil
}

// provenance names the host and build every number was recorded on.
func provenance() string {
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s os=%s/%s commit=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
}

// cpuModel reads the host CPU's model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// Set-up repetitions: at least setupMin, then until setupBudget has passed
// or setupMax ran.
const (
	setupMin    = 5
	setupMax    = 1001
	setupBudget = 2 * time.Second
)

// repeatSetup runs a workload's set-up several times and returns the last
// result with the median duration. Each set-up starts after a collection,
// outside its timing, so that it does not pay for the previous one's
// garbage; a collection after the last one keeps the set-ups' garbage out
// of the timed phase. The traced run reports no set-up time and sets up
// once.
func repeatSetup[T any](e *env, fn func() (T, error)) (T, float64, error) {
	var last T
	var ds []float64
	start := time.Now()
	for len(ds) < 1 || (e.tr == nil && (len(ds) < setupMin || (time.Since(start) < setupBudget && len(ds) < setupMax))) {
		runtime.GC()
		t0 := time.Now()
		v, err := fn()
		if err != nil {
			return last, 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
		last = v
	}
	runtime.GC()
	s := sortedCopy(ds)
	e.note("set-up: median %.6f s of %d (min %.6f, max %.6f)", median(s), len(s), s[0], s[len(s)-1])
	return last, median(s), nil
}
