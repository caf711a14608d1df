package sim

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/traffic"
)

// TestBuildOrderMatchesStableSort checks buildRank's ranks against
// sort.SliceStable over the offered calls departing at or before the
// horizon, keyed by the epoch, on generated traces with every
// holding-time family and at a run horizon shorter than the trace's.
func TestBuildOrderMatchesStableSort(t *testing.T) {
	m := traffic.Uniform(4, 90)
	const horizon = 6.0
	traces := map[string]*Trace{}
	for _, seed := range []int64{1, 2, 3} {
		traces[fmt.Sprintf("exp/seed=%d", seed)] = GenerateTrace(m, horizon, seed)
	}
	for _, dist := range []HoldingDist{HoldingExponential, HoldingDeterministic, HoldingHyperexp, HoldingErlang2} {
		tr, err := GenerateTraceHolding(m, horizon, 7, dist)
		if err != nil {
			t.Fatalf("%v: %v", dist, err)
		}
		traces[dist.String()] = tr
	}
	var scratch []int32
	for name, tr := range traces {
		for _, runH := range []float64{horizon, 4.5} {
			rk := buildRank(tr.Calls, runH, &scratch)
			if rk.ord == nil {
				t.Fatalf("%s/h=%v: order declined on a generated trace", name, runH)
			}
			n := 0
			for n < len(tr.Calls) && tr.Calls[n].Arrival < runH {
				n++
			}
			var ref []int
			for i := range n {
				if tr.Calls[i].Arrival+tr.Calls[i].Holding <= runH {
					ref = append(ref, i)
				}
			}
			epoch := func(i int) float64 { return tr.Calls[i].Arrival + tr.Calls[i].Holding }
			sort.SliceStable(ref, func(a, b int) bool { return epoch(ref[a]) < epoch(ref[b]) })
			if rk.n != n || len(rk.ord) != len(ref) || len(rk.at) != len(ref) {
				t.Fatalf("%s/h=%v: ranking over %d calls with %d/%d ranks, want %d and %d",
					name, runH, rk.n, len(rk.ord), len(rk.at), n, len(ref))
			}
			for r, i := range ref {
				if rk.ord[r] != int32(i) {
					t.Fatalf("%s/h=%v: rank %d holds call %d (epoch %v), reference call %d (epoch %v)",
						name, runH, r, rk.ord[r], epoch(int(rk.ord[r])), i, epoch(i))
				}
				if math.Float64bits(rk.at[r]) != math.Float64bits(epoch(i)) {
					t.Fatalf("%s/h=%v: rank %d epoch %v, want %v", name, runH, r, rk.at[r], epoch(i))
				}
			}
		}
	}
}

// TestBuildOrderDeclines lists the replays buildRank must leave to the
// departure heap.
func TestBuildOrderDeclines(t *testing.T) {
	call := func(a, h float64) Call { return Call{Arrival: a, Holding: h} }
	clustered := make([]Call, 4000)
	for i := range clustered {
		// Epochs decreasing in call order inside one bucket: the insertion
		// pass would need quadratic shifts.
		a := float64(i) * 1e-6
		clustered[i] = call(a, 1-2e-6*float64(i))
	}
	clustered = append(clustered, call(0.5, 1e8))
	cases := []struct {
		name    string
		calls   []Call
		horizon float64
	}{
		{"tied epochs", []Call{call(0, 2), call(1, 1)}, 10},
		{"integer epochs", []Call{call(0.5, 1.5), call(0.75, 3.25), call(1, 1)}, 10},
		// Epochs 2, 2.5, 2 share a bucket (100 widens the range), so the
		// tie is met while shifting past 2.5.
		{"tie behind a later epoch", []Call{call(0, 2), call(0.5, 2), call(1, 1), call(1.5, 98.5)}, 200},
		{"decreasing arrivals", []Call{call(1, 1), call(0.5, 1)}, 10},
		{"zero holding", []Call{call(1, 0)}, 10},
		{"holding rounds away", []Call{call(1, 1e-300)}, 10},
		{"negative holding", []Call{call(1, -0.5)}, 10},
		{"NaN holding", []Call{call(1, math.NaN())}, 10},
		{"infinite holding", []Call{call(1, math.Inf(1))}, 10},
		{"NaN arrival", []Call{call(math.NaN(), 1)}, 10},
		{"no in-horizon calls", []Call{call(10, 1)}, 10},
		{"empty trace", nil, 10},
		{"clustered epochs", clustered, 1e9},
	}
	var scratch []int32
	for _, tc := range cases {
		if rk := buildRank(tc.calls, tc.horizon, &scratch); rk.ord != nil {
			t.Errorf("%s: order accepted", tc.name)
		}
	}
	// Ties after the horizon never depart, so they do not matter.
	if rk := buildRank([]Call{call(0, 12), call(1, 11), call(2, 1)}, 10, &scratch); rk.ord == nil {
		t.Error("tie after the horizon: order declined")
	}
}
