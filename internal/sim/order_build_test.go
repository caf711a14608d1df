package sim

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/traffic"
)

// TestBuildOrderMatchesStableSort checks buildOrder's ranks against
// sort.SliceStable over the offered prefix, keyed by the epoch for
// departures at or before the horizon and +Inf after it (which keeps the
// later ones in call order, as buildOrder does), on generated traces with
// every holding-time family and at a run horizon shorter than the
// trace's.
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
	for name, tr := range traces {
		for _, runH := range []float64{horizon, 4.5} {
			o := buildOrder(tr.Calls, runH, nil, nil)
			if o == nil {
				t.Fatalf("%s/h=%v: order declined on a generated trace", name, runH)
			}
			n := 0
			for n < len(tr.Calls) && tr.Calls[n].Arrival < runH {
				n++
			}
			key := func(i int) float64 {
				if d := tr.Calls[i].Arrival + tr.Calls[i].Holding; d <= runH {
					return d
				}
				return math.Inf(1)
			}
			ref := make([]int, n)
			for i := range ref {
				ref[i] = i
			}
			sort.SliceStable(ref, func(a, b int) bool { return key(ref[a]) < key(ref[b]) })
			if len(o.ord) != n || len(o.slot) != n {
				t.Fatalf("%s/h=%v: order sized %d/%d, want %d", name, runH, len(o.ord), len(o.slot), n)
			}
			for r, i := range ref {
				if o.ord[r] != int32(i) {
					t.Fatalf("%s/h=%v: rank %d holds call %d (epoch %v), reference call %d (epoch %v)",
						name, runH, r, o.ord[r], key(int(o.ord[r])), i, key(i))
				}
				if o.slot[i] != slotUnbooked {
					t.Fatalf("%s/h=%v: call %d's slot starts as %d, want unbooked", name, runH, i, o.slot[i])
				}
			}
			o.release()
		}
	}
}

// TestBuildOrderDeclines lists the replays buildOrder must leave to the
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
	for _, tc := range cases {
		if o := buildOrder(tc.calls, tc.horizon, nil, nil); o != nil {
			t.Errorf("%s: order accepted", tc.name)
		}
	}
	// Ties after the horizon never depart, so they do not matter.
	if o := buildOrder([]Call{call(0, 12), call(1, 11), call(2, 1)}, 10, nil, nil); o == nil {
		t.Error("tie after the horizon: order declined")
	}
}
