package sim

import (
	"bytes"
	"testing"

	"repro/internal/graph"
)

// FuzzFailurePlanJSON feeds arbitrary bytes through ReadFailurePlanJSON,
// the path an altsim -failures file takes, against a named triangle with
// one duplex and one simplex side. It must not panic, and every plan it
// accepts must normalize against the graph, so Run never rejects a plan
// the reader let through. The checked-in corpus under
// testdata/fuzz/FuzzFailurePlanJSON runs in plain `go test`.
func FuzzFailurePlanJSON(f *testing.F) {
	g := graph.New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	for _, l := range [][2]graph.NodeID{{a, b}, {b, a}, {b, c}, {c, b}, {c, a}} {
		if _, err := g.AddLink(l[0], l[1], 2); err != nil {
			f.Fatal(err)
		}
	}
	f.Add([]byte(`[{"t":1.5,"from":0,"to":1,"down":true,"duplex":true},{"t":2,"from":"c","to":"a","down":true},{"t":3,"from":"a","to":"b","down":false,"duplex":true}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		plan, err := ReadFailurePlanJSON(bytes.NewReader(data), g)
		if err != nil {
			return
		}
		if _, err := plan.normalized(g); err != nil {
			t.Fatalf("accepted plan does not normalize: %v\n%s", err, data)
		}
	})
}
