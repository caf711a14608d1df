package sim_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// referenceGenerateTraceVarying is GenerateTraceVarying as it was before
// it shared the generators' arrival ordering: thinning per pair, then a
// sort.Slice on (Arrival, Origin, Dest) and IDs in sorted order.
func referenceGenerateTraceVarying(m *traffic.Matrix, profile sim.RateProfile, horizon float64, seed int64) (*sim.Trace, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("sim: horizon %v", horizon)
	}
	if profile == nil {
		profile = sim.ConstantProfile
	}
	// Bound the profile by sampling; thinning needs an upper envelope.
	peak := 0.0
	const samples = 4096
	for i := 0; i <= samples; i++ {
		v := profile(horizon * float64(i) / samples)
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, fmt.Errorf("sim: profile value %v at t=%v", v, horizon*float64(i)/samples)
		}
		if v > peak {
			peak = v
		}
	}
	if peak == 0 {
		return &sim.Trace{Horizon: horizon, Seed: seed}, nil
	}
	peak *= 1.0001 // guard against maxima between samples

	n := m.Size()
	var calls []sim.Call
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			rate := m.Demand(graph.NodeID(i), graph.NodeID(j))
			if rate <= 0 {
				continue
			}
			r := xrand.New(seed, int64(i), int64(j), 7919)
			t := 0.0
			for {
				t += xrand.Exp(r, 1/(rate*peak))
				if t >= horizon {
					break
				}
				// Thinning: accept with probability profile(t)/peak. The
				// uniform draw is consumed unconditionally so acceptance
				// never desynchronizes the holding-time stream.
				u := r.Float64()
				hold := xrand.Exp(r, 1)
				if u*peak > profile(t) {
					continue
				}
				calls = append(calls, sim.Call{
					Origin:  graph.NodeID(i),
					Dest:    graph.NodeID(j),
					Arrival: t,
					Holding: hold,
				})
			}
		}
	}
	sort.Slice(calls, func(a, b int) bool {
		if calls[a].Arrival != calls[b].Arrival {
			return calls[a].Arrival < calls[b].Arrival
		}
		if calls[a].Origin != calls[b].Origin {
			return calls[a].Origin < calls[b].Origin
		}
		return calls[a].Dest < calls[b].Dest
	})
	for i := range calls {
		calls[i].ID = i
	}
	return &sim.Trace{Calls: calls, Horizon: horizon, Seed: seed}, nil
}

// TestGoldenTraceVarying pins GenerateTraceVarying to the reference over
// constant, ramp and sine profiles and five seeds, float bits included.
func TestGoldenTraceVarying(t *testing.T) {
	nm, _, err := traffic.NSFNetNominal()
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 40
	profiles := []struct {
		name string
		p    sim.RateProfile
	}{
		{"constant", sim.ConstantProfile},
		{"ramp", sim.RampProfile(0.5, 1.6, horizon)},
		{"sine", sim.SineProfile(0.5, 15)},
	}
	for _, pr := range profiles {
		for _, seed := range goldenSeeds {
			got, err := sim.GenerateTraceVarying(nm, pr.p, horizon, seed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceGenerateTraceVarying(nm, pr.p, horizon, seed)
			if err != nil {
				t.Fatal(err)
			}
			requireSameTrace(t, fmt.Sprintf("%s/seed=%d", pr.name, seed), got, want)
		}
	}
}
