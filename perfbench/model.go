package main

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Workload inputs. The paper's §4 settings: NSFNet T3 at the reconstructed
// nominal matrix (Load=10) with unlimited alternate length H=11.
const (
	nsfnetH       = 11
	warmup        = 10.0
	replayHorizon = 60.0 // BenchmarkRunCalls' replay horizon, so history carries over
)

// fitNSFNet builds the NSFNet topology and fits its nominal matrix from
// Table 1 — the work traffic.NSFNetNominal does once per process and then
// caches. Set-up repeats it so that every set-up pays the cold cost a
// fresh process pays; checkNominal confirms the result is the cached
// matrix bit for bit.
func fitNSFNet() (*graph.Graph, *traffic.Matrix, error) {
	g := netmodel.NSFNet()
	pr, err := traffic.MinHopRouting(g)
	if err != nil {
		return nil, nil, err
	}
	targets := make([]float64, g.NumLinks())
	for i := range targets {
		targets[i] = -1
	}
	for pair, load := range netmodel.NSFNetTable1Load() {
		id := g.LinkBetween(pair[0], pair[1])
		if id == graph.InvalidLink {
			return nil, nil, fmt.Errorf("Table 1 link %v missing from topology", pair)
		}
		targets[id] = load
	}
	m, err := traffic.FitLinkLoads(g, pr, targets, traffic.FitOptions{})
	return g, m, err
}

// checkNominal compares a fitted matrix with traffic.NSFNetNominal.
func checkNominal(o *outcome, m *traffic.Matrix) {
	want, _, err := traffic.NSFNetNominal()
	if err != nil {
		o.fail("nominal matrix: %v", err)
		return
	}
	for i := 0; i < m.Size(); i++ {
		for j := 0; j < m.Size(); j++ {
			a, b := m.Demand(graph.NodeID(i), graph.NodeID(j)), want.Demand(graph.NodeID(i), graph.NodeID(j))
			if math.Float64bits(a) != math.Float64bits(b) {
				o.fail("fitted demand %d->%d = %v, traffic.NSFNetNominal has %v", i, j, a, b)
				return
			}
		}
	}
}

// interpreted hides a policy's compiled form, so sim.Run falls back to the
// interpreted engine: the reference every timed run is checked against.
type interpreted struct{ sim.Policy }

// counters are the Result fields every timed run must reproduce exactly.
type counters struct {
	Offered, Blocked, AlternateAccepted, CarriedHopCount int64
}

func countersOf(r *sim.Result) counters {
	return counters{r.Offered, r.Blocked, r.AlternateAccepted, r.CarriedHopCount}
}

// opLoop runs op back to back until the measuring time is spent and
// returns each operation's duration in seconds and the peak resident set
// during it in MiB. post, when non-nil, runs after each operation outside
// its timed interval (output checks). Every call counts as attempted; an
// error counts as failed and stops nothing.
func opLoop(e *env, o *outcome, name string, op func(i int) error, post func(i int)) (ds, rss []float64) {
	// One untimed operation first, so that heap growth and first-touch
	// page faults are not charged to the first timed one.
	if err := op(-1); err != nil {
		o.attempted++
		o.fail("%s warm-up: %v", name, err)
	}
	w := watchRSS()
	defer w.close()
	budget := time.Duration(e.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; time.Since(start) < budget; i++ {
		w.mark()
		t0 := time.Now()
		err := op(i)
		d := time.Since(t0)
		peak := w.mark()
		o.attempted++
		if err != nil {
			o.fail("%s %d: %v", name, i, err)
			continue
		}
		ds, rss = append(ds, d.Seconds()), append(rss, peak)
		if post != nil {
			post(i)
		}
	}
	return ds, rss
}

// rssWatch samples this process's resident set every few milliseconds and
// keeps the peak since the last mark. The median over operations of the
// per-operation peak is steadier than the process's lifetime peak, which
// is the extreme of a quantity that concurrent allocation makes vary from
// run to run.
type rssWatch struct {
	mu         sync.Mutex
	peak       int64 // bytes
	stop, done chan struct{}
}

func watchRSS() *rssWatch {
	w := &rssWatch{stop: make(chan struct{}), done: make(chan struct{})}
	w.mark()
	go func() {
		defer close(w.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.observe()
			}
		}
	}()
	return w
}

// observe folds the current resident set into the peak.
func (w *rssWatch) observe() int64 {
	b := rssBytes()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.peak = max(w.peak, b)
	return w.peak
}

// mark returns the peak since the previous mark in MiB and restarts it
// from the current resident set.
func (w *rssWatch) mark() float64 {
	peak := w.observe()
	w.mu.Lock()
	w.peak = rssBytes()
	w.mu.Unlock()
	return float64(peak) / (1 << 20)
}

func (w *rssWatch) close() {
	close(w.stop)
	<-w.done
}

// rssBytes reads the resident set from /proc/self/statm (its second field,
// in pages); 0 when it cannot.
func rssBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// opMetrics sets the median operation time and notes the tail.
func opMetrics(e *env, o *outcome, ds []float64) {
	if len(ds) == 0 {
		o.fail("no operation completed")
		ds = []float64{math.NaN()}
	}
	s := sortedCopy(ds)
	t := tailOf(s)
	o.set("op_p50_ms", percentile(s, 50)*1e3, "ms")
	e.note("op latency p50 %.4f ms, tail %.4f ms (%s)", percentile(s, 50)*1e3, t.Value*1e3, t.Label())
}
