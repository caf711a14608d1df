package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n     int
		p     float64
		value float64
	}{
		{10000, 99.9, 9990}, // exactly ten samples beyond rank 9990
		{9999, 99, 9900},    // p99.9 would leave nine
		{1000, 99, 990},
		{999, 95, 950}, // p99 would leave nine
		{200, 95, 190},
		{100, 90, 90},
		{40, 75, 30},
		{25, 50, 13},
		{20, 50, 10}, // ten beyond the median
		{19, 100, 19},
		{1, 100, 1},
	} {
		got := tailOf(ramp(c.n))
		if got.Percentile != c.p || got.Value != c.value || got.Samples != c.n {
			t.Errorf("n=%d: got %+v, want p%g = %g", c.n, got, c.p, c.value)
		}
		if got.Percentile < 100 && c.n-rank(got.Percentile, c.n) < 10 {
			t.Errorf("n=%d: p%g leaves fewer than ten samples beyond it", c.n, got.Percentile)
		}
	}
	if l := tailOf(ramp(1000)).Label(); l != "p99 of 1000" {
		t.Errorf("label %q", l)
	}
	if l := tailOf(ramp(5)).Label(); l != "max of 5" {
		t.Errorf("label %q", l)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
	if p := percentile(ramp(100), 50); p != 50 {
		t.Errorf("p50 of 1..100 = %g", p)
	}
}

func TestNameGrammar(t *testing.T) {
	long := strings.Repeat("a", 64)
	for _, s := range []string{"setup_s", "sim.run.ns_per_call", "admit_p50_us.low", "0x", "A-b_c.d", long} {
		if !validName(s) {
			t.Errorf("%q rejected", s)
		}
	}
	for _, s := range []string{"", "_x", ".x", "-x", "a b", "a/b", "a%", long + "a", "é"} {
		if validName(s) {
			t.Errorf("%q accepted", s)
		}
	}
	for _, s := range []string{"ms", "s", "1/s", "%", "count", "MB"} {
		if !validUnit(s) {
			t.Errorf("unit %q rejected", s)
		}
	}
	for _, s := range []string{"", "a b", strings.Repeat("u", 17)} {
		if validUnit(s) {
			t.Errorf("unit %q accepted", s)
		}
	}
}

func TestDeclaredMetrics(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if !validName(m.Name) || !validUnit(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
				t.Errorf("bad metric %+v", m)
			}
			if seen[m.Name] {
				t.Errorf("metric %s declared twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	for _, w := range workloads {
		if !validName(w.name) || seen[w.name] {
			t.Errorf("bad workload name %q", w.name)
		}
		seen[w.name] = true
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// TestBenchmarkJSON holds BENCHMARK.json to the metrics and workloads this
// program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	// Every listed workload is implemented with the same reason.
	why := map[string]string{}
	for _, w := range workloads {
		why[w.name] = w.why
	}
	if len(f.Workloads) < 2 {
		t.Errorf("%d workloads listed", len(f.Workloads))
	}
	for _, w := range f.Workloads {
		if want, ok := why[w.Name]; !ok || w.Why != want {
			t.Errorf("workload %q: file says %q, program %q (implemented %v)", w.Name, w.Why, want, ok)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, %d reported", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		if (metricSpec{m.Name, m.Unit, m.Better}) != endToEnd[i] {
			t.Errorf("end_to_end %d: file %+v, program %+v", i, m, endToEnd[i])
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, %d reported", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per_layer %d: file %+v, program %+v", i, m, perLayer[i])
		}
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 || len(f.Paths) != 1 || f.Paths[0] != "perfbench" {
		t.Errorf("run_seconds %d, paths %v", f.RunSeconds, f.Paths)
	}
}
