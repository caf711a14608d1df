package netio

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
)

// FuzzScenario feeds arbitrary bytes through Read and Build, the path a
// scenario file takes into altsim and altd. Neither may panic; Read only
// decodes, so its failures are JSON decode errors, and every Build
// failure wraps ErrInvalidScenario. An accepted scenario survives
// Write/Read: re-encoding the re-read document gives the same bytes, and
// it builds the same graph and matrix. The checked-in corpus under
// testdata/fuzz/FuzzScenario runs in plain `go test`.
func FuzzScenario(f *testing.F) {
	f.Add([]byte(`{"name":"tri","nodes":["a","b","c"],"duplex":[{"from":"a","to":"b","capacity":3},{"from":"b","to":"c","capacity":2},{"from":"c","to":"a","capacity":1}],"demands":[{"from":"a","to":"c","erlangs":1.5}],"h":2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "netio: parsing scenario: ") {
				t.Fatalf("Read error is not a decode error: %v", err)
			}
			return
		}
		g, m, err := s.Build()
		if err != nil {
			if !errors.Is(err, ErrInvalidScenario) {
				t.Fatalf("Build error does not wrap ErrInvalidScenario: %v", err)
			}
			return
		}
		if g.NumNodes() != len(s.Nodes) || m.Size() != g.NumNodes() {
			t.Fatalf("built %d nodes and a %d-node matrix from %d names", g.NumNodes(), m.Size(), len(s.Nodes))
		}

		var first bytes.Buffer
		if err := s.Write(&first); err != nil {
			t.Fatalf("Write: %v", err)
		}
		s2, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-reading a written scenario: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := s2.Write(&second); err != nil {
			t.Fatalf("Write after re-read: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Write/Read round trip changed the document:\n%s\n%s", first.Bytes(), second.Bytes())
		}
		g2, m2, err := s2.Build()
		if err != nil {
			t.Fatalf("re-read scenario no longer builds: %v", err)
		}
		if g2.NumLinks() != g.NumLinks() {
			t.Fatalf("round trip changed the link count: %d → %d", g.NumLinks(), g2.NumLinks())
		}
		links2 := g2.Links()
		for i, l := range g.Links() {
			if l2 := links2[i]; l2 != l {
				t.Fatalf("round trip changed link %d: %+v → %+v", i, l, l2)
			}
		}
		for i := 0; i < m.Size(); i++ {
			for j := 0; j < m.Size(); j++ {
				a, b := m.Demand(graph.NodeID(i), graph.NodeID(j)), m2.Demand(graph.NodeID(i), graph.NodeID(j))
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("round trip changed demand %d→%d: %v → %v", i, j, a, b)
				}
			}
		}
	})
}
