// Package netio serializes network scenarios — topology, offered traffic,
// and scheme parameters — as JSON documents, so the harness and downstream
// users can run the controlled alternate-routing machinery on their own
// networks (`altsim custom -scenario file.json`).
package netio

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/graph"
	"repro/internal/traffic"
)

// ErrInvalidScenario is wrapped by every validation failure of
// Scenario.Build, so long-running consumers (the altd daemon loads its
// topology at startup) can distinguish a malformed scenario document from
// an I/O error with errors.Is and fail loudly before any traffic is
// admitted. The message chain always names the offending element.
var ErrInvalidScenario = errors.New("netio: invalid scenario")

// invalidf wraps a validation failure in ErrInvalidScenario.
func invalidf(format string, a ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrInvalidScenario}, a...)...)
}

// Scenario is the on-disk description of a network and its workload.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string `json:"name"`
	// Nodes lists display names; node IDs are their indices.
	Nodes []string `json:"nodes"`
	// Links lists unidirectional capacitated links. Use two entries (or
	// Duplex) for a bidirectional facility.
	Links []LinkSpec `json:"links,omitempty"`
	// Duplex lists bidirectional facilities expanded into two links each.
	Duplex []LinkSpec `json:"duplex,omitempty"`
	// Demands lists the offered loads in Erlangs per ordered pair.
	Demands []DemandSpec `json:"demands"`
	// H is the maximum alternate hop length (0 = unlimited loop-free).
	H int `json:"h,omitempty"`
}

// LinkSpec is one facility.
type LinkSpec struct {
	From     string `json:"from"`
	To       string `json:"to"`
	Capacity int    `json:"capacity"`
}

// DemandSpec is one ordered pair's offered load.
type DemandSpec struct {
	From    string  `json:"from"`
	To      string  `json:"to"`
	Erlangs float64 `json:"erlangs"`
}

// Read parses a scenario document.
func Read(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("netio: parsing scenario: %w", err)
	}
	return &s, nil
}

// Write serializes a scenario document.
func (s *Scenario) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// MaxNodes is the largest node count Build accepts. The traffic matrix
// and the simulator's per-pair counters are sized n², so an unbounded
// count would let one scenario document demand arbitrary memory. The
// largest topology the benchmarks build (netmodel.Metro) has 200 nodes.
const MaxNodes = 1024

// Build materializes the scenario into a graph and traffic matrix, resolving
// node names and validating the description. Every validation failure wraps
// ErrInvalidScenario: fewer than 2 or more than MaxNodes nodes, self-loop
// or duplicate facilities, non-positive capacities, self-loop or
// non-finite demands (each, and summed per pair), unknown nodes, and a
// disconnected topology are all rejected here with the offending element
// named, rather than surfacing later as a panic inside sim.State or
// traffic.Matrix.
func (s *Scenario) Build() (*graph.Graph, *traffic.Matrix, error) {
	if len(s.Nodes) < 2 || len(s.Nodes) > MaxNodes {
		return nil, nil, invalidf("needs 2 to %d nodes (got %d)", MaxNodes, len(s.Nodes))
	}
	g := graph.New()
	ids := make(map[string]graph.NodeID, len(s.Nodes))
	for _, name := range s.Nodes {
		if name == "" {
			return nil, nil, invalidf("empty node name")
		}
		if _, dup := ids[name]; dup {
			return nil, nil, invalidf("duplicate node %q", name)
		}
		ids[name] = g.AddNode(name)
	}
	lookup := func(name string) (graph.NodeID, error) {
		id, ok := ids[name]
		if !ok {
			return graph.InvalidNode, invalidf("unknown node %q", name)
		}
		return id, nil
	}
	// addFacility validates and installs one unidirectional facility; the
	// graph layer's own rejections (self-loops, duplicates — including a
	// Duplex colliding with an earlier Links entry or another Duplex) are
	// folded into the same wrapped error.
	addFacility := func(kind string, l LinkSpec, from, to graph.NodeID) error {
		if l.Capacity <= 0 {
			return invalidf("%s %s→%s: non-positive capacity %d", kind, l.From, l.To, l.Capacity)
		}
		if _, err := g.AddLink(from, to, l.Capacity); err != nil {
			return invalidf("%s %s→%s: %v", kind, l.From, l.To, err)
		}
		return nil
	}
	for _, l := range s.Links {
		from, err := lookup(l.From)
		if err != nil {
			return nil, nil, err
		}
		to, err := lookup(l.To)
		if err != nil {
			return nil, nil, err
		}
		if err := addFacility("link", l, from, to); err != nil {
			return nil, nil, err
		}
	}
	for _, l := range s.Duplex {
		from, err := lookup(l.From)
		if err != nil {
			return nil, nil, err
		}
		to, err := lookup(l.To)
		if err != nil {
			return nil, nil, err
		}
		if err := addFacility("duplex", l, from, to); err != nil {
			return nil, nil, err
		}
		if err := addFacility("duplex", l, to, from); err != nil {
			return nil, nil, err
		}
	}
	if !g.Connected() {
		return nil, nil, invalidf("scenario %q is not strongly connected", s.Name)
	}
	m := traffic.NewMatrix(g.NumNodes())
	for _, d := range s.Demands {
		from, err := lookup(d.From)
		if err != nil {
			return nil, nil, err
		}
		to, err := lookup(d.To)
		if err != nil {
			return nil, nil, err
		}
		if from == to {
			return nil, nil, invalidf("demand %s→%s is a self-loop", d.From, d.To)
		}
		if d.Erlangs < 0 || math.IsNaN(d.Erlangs) || math.IsInf(d.Erlangs, 0) {
			return nil, nil, invalidf("demand %s→%s has invalid load %v", d.From, d.To, d.Erlangs)
		}
		sum := m.Demand(from, to) + d.Erlangs
		if math.IsInf(sum, 0) {
			return nil, nil, invalidf("demand %s→%s: accumulated load overflows", d.From, d.To)
		}
		m.SetDemand(from, to, sum)
	}
	return g, m, nil
}

// FromNetwork captures an existing graph and matrix as a scenario document
// (duplex pairs are not reconstructed; every link is emitted individually).
func FromNetwork(name string, g *graph.Graph, m *traffic.Matrix, h int) (*Scenario, error) {
	if g.NumNodes() != m.Size() {
		return nil, fmt.Errorf("netio: matrix size %d for %d nodes", m.Size(), g.NumNodes())
	}
	s := &Scenario{Name: name, H: h}
	for i := 0; i < g.NumNodes(); i++ {
		s.Nodes = append(s.Nodes, g.NodeName(graph.NodeID(i)))
	}
	for _, l := range g.Links() {
		s.Links = append(s.Links, LinkSpec{
			From:     g.NodeName(l.From),
			To:       g.NodeName(l.To),
			Capacity: l.Capacity,
		})
	}
	for i := graph.NodeID(0); int(i) < g.NumNodes(); i++ {
		for j := graph.NodeID(0); int(j) < g.NumNodes(); j++ {
			if i == j {
				continue
			}
			if d := m.Demand(i, j); d > 0 {
				s.Demands = append(s.Demands, DemandSpec{
					From: g.NodeName(i), To: g.NodeName(j), Erlangs: d,
				})
			}
		}
	}
	return s, nil
}
