package netio

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/traffic"
)

const sampleScenario = `{
  "name": "toy",
  "nodes": ["sf", "ny", "dc"],
  "duplex": [
    {"from": "sf", "to": "ny", "capacity": 40},
    {"from": "ny", "to": "dc", "capacity": 40},
    {"from": "sf", "to": "dc", "capacity": 20}
  ],
  "demands": [
    {"from": "sf", "to": "ny", "erlangs": 25},
    {"from": "ny", "to": "sf", "erlangs": 20},
    {"from": "sf", "to": "dc", "erlangs": 10}
  ],
  "h": 2
}`

func TestReadAndBuild(t *testing.T) {
	s, err := Read(strings.NewReader(sampleScenario))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "toy" || s.H != 2 {
		t.Errorf("scenario header %+v", s)
	}
	g, m, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumLinks() != 6 {
		t.Errorf("graph %d nodes %d links", g.NumNodes(), g.NumLinks())
	}
	if got := m.Demand(0, 1); got != 25 {
		t.Errorf("Demand(sf,ny) = %v", got)
	}
	if got := m.Demand(1, 0); got != 20 {
		t.Errorf("Demand(ny,sf) = %v", got)
	}
	if got := g.Link(g.LinkBetween(0, 2)).Capacity; got != 20 {
		t.Errorf("sf→dc capacity %v", got)
	}
}

func TestReadRejectsUnknownFields(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"name":"x","bogus":1}`)); err == nil {
		t.Error("unknown field: want error")
	}
	if _, err := Read(strings.NewReader(`not json`)); err == nil {
		t.Error("bad JSON: want error")
	}
}

func TestBuildValidation(t *testing.T) {
	cases := map[string]Scenario{
		"too few nodes": {Nodes: []string{"a"}},
		"empty name":    {Nodes: []string{"a", ""}},
		"dup node":      {Nodes: []string{"a", "a"}},
		"unknown link node": {
			Nodes: []string{"a", "b"},
			Links: []LinkSpec{{From: "a", To: "zz", Capacity: 1}},
		},
		"unknown duplex node": {
			Nodes:  []string{"a", "b"},
			Duplex: []LinkSpec{{From: "zz", To: "b", Capacity: 1}},
		},
		"self demand": {
			Nodes:   []string{"a", "b"},
			Duplex:  []LinkSpec{{From: "a", To: "b", Capacity: 1}},
			Demands: []DemandSpec{{From: "a", To: "a", Erlangs: 1}},
		},
		"negative demand": {
			Nodes:   []string{"a", "b"},
			Duplex:  []LinkSpec{{From: "a", To: "b", Capacity: 1}},
			Demands: []DemandSpec{{From: "a", To: "b", Erlangs: -1}},
		},
		"demand sum overflows": {
			Nodes:   []string{"a", "b"},
			Duplex:  []LinkSpec{{From: "a", To: "b", Capacity: 1}},
			Demands: []DemandSpec{{From: "a", To: "b", Erlangs: 1e308}, {From: "a", To: "b", Erlangs: 1e308}},
		},
		"unknown demand node": {
			Nodes:   []string{"a", "b"},
			Duplex:  []LinkSpec{{From: "a", To: "b", Capacity: 1}},
			Demands: []DemandSpec{{From: "a", To: "zz", Erlangs: 1}},
		},
		"disconnected": {
			Nodes: []string{"a", "b", "c"},
			Links: []LinkSpec{{From: "a", To: "b", Capacity: 1}, {From: "b", To: "a", Capacity: 1}},
		},
	}
	tooMany := make([]string, MaxNodes+1)
	for i := range tooMany {
		tooMany[i] = fmt.Sprintf("n%d", i)
	}
	cases["too many nodes"] = Scenario{Nodes: tooMany}
	for name, s := range cases {
		_, _, err := s.Build()
		if err == nil {
			t.Errorf("%s: want error", name)
			continue
		}
		if !errors.Is(err, ErrInvalidScenario) {
			t.Errorf("%s: error %v does not wrap ErrInvalidScenario", name, err)
		}
	}
}

// TestBuildRejectsMalformedFacilities covers the daemon-startup hardening:
// non-positive capacities, self-loop facilities, and duplicate duplex
// entries must fail loudly with a wrapped ErrInvalidScenario naming the
// offending element, rather than building a network that panics later
// inside sim.State. Pre-fix, zero capacities built silently and the graph
// layer's rejections surfaced as untyped errors.
func TestBuildRejectsMalformedFacilities(t *testing.T) {
	valid := func() Scenario {
		return Scenario{
			Name:    "t",
			Nodes:   []string{"a", "b"},
			Duplex:  []LinkSpec{{From: "a", To: "b", Capacity: 10}},
			Demands: []DemandSpec{{From: "a", To: "b", Erlangs: 3}},
		}
	}
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string // substring the error must carry
	}{
		{"zero capacity duplex", func(s *Scenario) { s.Duplex[0].Capacity = 0 }, "non-positive capacity"},
		{"negative capacity duplex", func(s *Scenario) { s.Duplex[0].Capacity = -4 }, "non-positive capacity"},
		{"zero capacity link", func(s *Scenario) {
			s.Links = []LinkSpec{{From: "b", To: "a", Capacity: 0}}
		}, "non-positive capacity"},
		{"self-loop link", func(s *Scenario) {
			s.Links = []LinkSpec{{From: "a", To: "a", Capacity: 5}}
		}, "self-loop"},
		{"self-loop duplex", func(s *Scenario) {
			s.Duplex = append(s.Duplex, LinkSpec{From: "b", To: "b", Capacity: 5})
		}, "self-loop"},
		{"duplicate duplex", func(s *Scenario) {
			s.Duplex = append(s.Duplex, LinkSpec{From: "a", To: "b", Capacity: 5})
		}, "duplicate link"},
		{"reversed duplicate duplex", func(s *Scenario) {
			s.Duplex = append(s.Duplex, LinkSpec{From: "b", To: "a", Capacity: 5})
		}, "duplicate link"},
		{"duplex collides with link", func(s *Scenario) {
			s.Links = []LinkSpec{{From: "a", To: "b", Capacity: 5}}
		}, "duplicate link"},
		{"duplicate link", func(s *Scenario) {
			s.Duplex = nil
			s.Links = []LinkSpec{
				{From: "a", To: "b", Capacity: 5},
				{From: "b", To: "a", Capacity: 5},
				{From: "a", To: "b", Capacity: 7},
			}
		}, "duplicate link"},
		{"NaN demand", func(s *Scenario) { s.Demands[0].Erlangs = math.NaN() }, "invalid load"},
		{"Inf demand", func(s *Scenario) { s.Demands[0].Erlangs = math.Inf(1) }, "invalid load"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := valid()
			tc.mut(&s)
			_, _, err := s.Build()
			if err == nil {
				t.Fatal("Build accepted a malformed scenario")
			}
			if !errors.Is(err, ErrInvalidScenario) {
				t.Errorf("error %v does not wrap ErrInvalidScenario", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name the problem (want substring %q)", err, tc.want)
			}
		})
	}
}

func TestDemandsAccumulate(t *testing.T) {
	s := Scenario{
		Nodes:  []string{"a", "b"},
		Duplex: []LinkSpec{{From: "a", To: "b", Capacity: 5}},
		Demands: []DemandSpec{
			{From: "a", To: "b", Erlangs: 2},
			{From: "a", To: "b", Erlangs: 3},
		},
	}
	_, m, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Demand(0, 1); got != 5 {
		t.Errorf("accumulated demand %v, want 5", got)
	}
}

func TestRoundTripNSFNet(t *testing.T) {
	g := netmodel.NSFNet()
	nominal, _, err := traffic.NSFNetNominal()
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromNetwork("nsfnet", g, nominal, 11)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	g2, m2, err := back.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumLinks() != g.NumLinks() {
		t.Fatalf("round trip changed topology: %v vs %v", g2, g)
	}
	for i := graph.NodeID(0); int(i) < g.NumNodes(); i++ {
		for j := graph.NodeID(0); int(j) < g.NumNodes(); j++ {
			if i == j {
				continue
			}
			if math.Abs(m2.Demand(i, j)-nominal.Demand(i, j)) > 1e-12 {
				t.Fatalf("demand (%d,%d) changed: %v vs %v", i, j, m2.Demand(i, j), nominal.Demand(i, j))
			}
			id, id2 := g.LinkBetween(i, j), g2.LinkBetween(i, j)
			if (id == graph.InvalidLink) != (id2 == graph.InvalidLink) {
				t.Fatalf("adjacency (%d,%d) changed", i, j)
			}
		}
	}
	if s2, err := FromNetwork("bad", g, traffic.NewMatrix(3), 0); err == nil || s2 != nil {
		t.Error("size mismatch: want error")
	}
}
