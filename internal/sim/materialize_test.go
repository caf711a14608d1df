package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/traffic"
)

// requireSameCalls fails unless got and want agree call for call, float
// bits included.
func requireSameCalls(t *testing.T, label string, got, want []Call) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d calls, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Origin != w.Origin || g.Dest != w.Dest ||
			math.Float64bits(g.Arrival) != math.Float64bits(w.Arrival) ||
			math.Float64bits(g.Holding) != math.Float64bits(w.Holding) {
			t.Fatalf("%s: call %d = %+v, want %+v", label, i, g, w)
		}
	}
}

// pairMajor lays out one pair per arrival list, pairs in list order, the
// way the generators hand calls to orderArrivals. Holding numbers the
// calls in input order so a misplaced tie shows.
func pairMajor(pairs ...[]float64) []Call {
	var calls []Call
	for p, arrivals := range pairs {
		for _, a := range arrivals {
			calls = append(calls, Call{
				Origin:  graph.NodeID(p / 8),
				Dest:    graph.NodeID(p%8 + 8),
				Arrival: a,
				Holding: float64(len(calls)),
			})
		}
	}
	return calls
}

// TestOrderArrivalsMatchesStableSort checks orderArrivals against
// slices.SortStableFunc by arrival on pair-major inputs with ties across
// and within pairs, arrivals at the horizon's edge, Poisson-like spreads
// and a clustered input that exhausts the insertion budget, and that each
// input takes the path expected (bucketed, or the stable-sort fallback).
func TestOrderArrivalsMatchesStableSort(t *testing.T) {
	const horizon = 10.0
	rng := rand.New(rand.NewSource(1))
	spread := func(pairs, calls int, width, grid float64) [][]float64 {
		out := make([][]float64, pairs)
		for p := range out {
			for k := 0; k < calls; k++ {
				a := rng.Float64() * width
				if grid > 0 {
					a = math.Floor(a/grid) * grid
				}
				out[p] = append(out[p], a)
			}
			slices.Sort(out[p])
		}
		return out
	}
	edge := math.Nextafter(horizon, 0)
	cases := []struct {
		name     string
		pairs    [][]float64
		bucketed bool
	}{
		{"empty", nil, true},
		{"single", [][]float64{{3}}, true},
		{"cross-pair ties", [][]float64{{1, 2, 3}, {1, 2.5, 3}, {0.5, 1, 3}}, true},
		{"same-pair ties", [][]float64{{1, 1, 1, 2}, {0, 1, 1.5}, {1, 1}}, true},
		{"horizon edge", [][]float64{{0, edge}, {edge}, {9.5, edge}}, true},
		{"poisson", spread(20, 100, horizon, 0), true},
		{"poisson on a grid", spread(20, 100, horizon, 1.0/64), true},
		{"clustered", spread(20, 50, 1e-6, 0), false},
	}
	for _, tc := range cases {
		in := pairMajor(tc.pairs...)
		want := slices.Clone(in)
		slices.SortStableFunc(want, func(a, b Call) int { return cmp.Compare(a.Arrival, b.Arrival) })
		for i := range want {
			want[i].ID = 7 + i
		}
		if got := bucketArrivals(slices.Clone(in), horizon); got != tc.bucketed {
			t.Errorf("%s: bucketArrivals = %v, want %v", tc.name, got, tc.bucketed)
		}
		got := slices.Clone(in)
		orderArrivals(got, horizon, 7)
		requireSameCalls(t, tc.name, got, want)
	}
}

// TestExpectedCallsClamped pins the capacity hint at rates whose expected
// call count overflows an int (1e17 Erlangs over 110 time units) or is
// +Inf. Unclamped, the hint wrapped negative and Materialize panicked in
// makeslice.
func TestExpectedCallsClamped(t *testing.T) {
	for _, rate := range []float64{1e17, 1e300, math.MaxFloat64} {
		m := traffic.NewMatrix(2)
		m.SetDemand(0, 1, rate)
		m.SetDemand(1, 0, rate)
		s, err := NewStream(m, 110, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got, limit := s.expectedCalls(), len(s.heap)+maxCallsHint+16; got <= 0 || got > limit {
			t.Errorf("rate %g: expectedCalls = %d, want in (0, %d]", rate, got, limit)
		}
	}
}

// drain pulls every remaining call from s through Next.
func drain(s *Stream) []Call {
	var calls []Call
	for {
		c, ok := s.Next()
		if !ok {
			return calls
		}
		calls = append(calls, c)
	}
}

// fuzzMatrix builds a 2–5 node matrix from b: the first byte picks the
// size, each later byte one ordered pair's rate, 0 for no demand and
// otherwise log-spaced over [1e-3, 1e3] Erlangs.
func fuzzMatrix(b []byte) *traffic.Matrix {
	n := 2
	if len(b) > 0 {
		n += int(b[0] % 4)
		b = b[1:]
	}
	m := traffic.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || len(b) == 0 {
				continue
			}
			if b[0] != 0 {
				m.SetDemand(graph.NodeID(i), graph.NodeID(j), 1e-3*math.Pow(1e6, float64(b[0]-1)/254))
			}
			b = b[1:]
		}
	}
	return m
}

// FuzzGenerateTrace holds the materializing generators to the merge
// heap: GenerateTrace and GenerateTraceHolding must equal a Next drain of
// the same stream bit for bit, and a stream drained partly through Next
// and then materialized must yield the rest of that drain, IDs included.
func FuzzGenerateTrace(f *testing.F) {
	f.Add(int64(1), uint16(0xffff), uint8(0), uint16(0), []byte{0, 200, 180})
	f.Add(int64(7), uint16(0x4000), uint8(2), uint16(50), []byte{3, 255, 1, 128, 0, 90, 170, 30, 210, 0, 64, 140, 250})
	f.Add(int64(-3), uint16(9), uint8(3), uint16(1), []byte{1, 255, 255, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, seed int64, h uint16, dist uint8, cut uint16, rates []byte) {
		m := fuzzMatrix(rates)
		horizon := 50 * (float64(h) + 1) / 65536
		hd := HoldingDist(dist % 4)
		label := fmt.Sprintf("seed=%d horizon=%v dist=%v", seed, horizon, hd)

		s, err := NewStream(m, horizon, seed)
		if err != nil {
			t.Fatal(err)
		}
		requireSameCalls(t, label+" GenerateTrace", GenerateTrace(m, horizon, seed).Calls, drain(s))

		s, err = NewStreamHolding(m, horizon, seed, hd)
		if err != nil {
			t.Fatal(err)
		}
		want := drain(s)
		tr, err := GenerateTraceHolding(m, horizon, seed, hd)
		if err != nil {
			t.Fatal(err)
		}
		requireSameCalls(t, label+" GenerateTraceHolding", tr.Calls, want)

		// Partial drain: Next for the first k calls, Materialize the rest.
		k := int(cut) % (len(want) + 1)
		s, err = NewStreamHolding(m, horizon, seed, hd)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if _, ok := s.Next(); !ok {
				t.Fatalf("%s: stream ended after %d calls, want %d", label, i, len(want))
			}
		}
		rest := s.Materialize()
		requireSameCalls(t, fmt.Sprintf("%s after %d", label, k), rest.Calls, want[k:])
		if rest.Horizon != horizon || rest.Seed != seed {
			t.Fatalf("%s: header (%v, %d)", label, rest.Horizon, rest.Seed)
		}
		if c, ok := s.Next(); ok {
			t.Fatalf("%s: materialized stream still emits %+v", label, c)
		}
	})
}
