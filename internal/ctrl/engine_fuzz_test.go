package ctrl

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/paths"
	"repro/internal/policy"
	"repro/internal/routetable"
	"repro/internal/sim"
)

// incompilable hides the embedded policy's compiled table, so an engine
// holding it decides every call through the interpreted fallback — even
// after a topology change triggers a Recompile.
type incompilable struct{ sim.TableCompiler }

func (incompilable) CompileRoutes() (*routetable.Compiled, bool) { return nil, false }

// fuzzPolicies builds the policies FuzzEngineOps picks from over a
// complete 4-node mesh of capacity-3 duplex links: min-hop primaries under
// the single-path, controlled and tiered rules, and bifurcated primaries
// (direct and one two-hop path, half the weight each) under the controlled
// rule.
func fuzzPolicies(f *testing.F) (*graph.Graph, []sim.TableCompiler) {
	g := graph.New()
	const n = 4
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", i))
	}
	for i := graph.NodeID(0); i < n; i++ {
		for j := i + 1; j < n; j++ {
			if _, _, err := g.AddDuplex(i, j, 3); err != nil {
				f.Fatal(err)
			}
		}
	}
	minHop, err := policy.BuildMinHop(g, 0)
	if err != nil {
		f.Fatal(err)
	}
	prim := make(map[[2]graph.NodeID][]policy.WeightedPath)
	for i := graph.NodeID(0); i < n; i++ {
		for j := graph.NodeID(0); j < n; j++ {
			if i == j {
				continue
			}
			via := (j + 1) % n
			if via == i {
				via = (via + 1) % n
			}
			prim[[2]graph.NodeID{i, j}] = []policy.WeightedPath{
				{Path: paths.Path{
					Nodes: []graph.NodeID{i, j},
					Links: []graph.LinkID{g.LinkBetween(i, j)},
				}, Weight: 0.5},
				{Path: paths.Path{
					Nodes: []graph.NodeID{i, via, j},
					Links: []graph.LinkID{g.LinkBetween(i, via), g.LinkBetween(via, j)},
				}, Weight: 0.5},
			}
		}
	}
	bifurcated, err := policy.BuildBifurcated(g, prim, 0, 7)
	if err != nil {
		f.Fatal(err)
	}
	levels := func(r int) []int {
		v := make([]int, g.NumLinks())
		for i := range v {
			v[i] = r
		}
		return v
	}
	return g, []sim.TableCompiler{
		policy.SinglePath{T: minHop},
		policy.Controlled{T: minHop, R: levels(1)},
		policy.ControlledTiered{T: minHop, SplitHops: 2, RShort: levels(0), RLong: levels(2)},
		policy.Controlled{T: bifurcated, R: levels(1)},
	}
}

// FuzzEngineOps decodes the input into a sequence of admit, release and
// link-down/up operations and applies it to a compiled Engine and to a
// twin held on the interpreted fallback. Both must return the same
// Decision and error for every operation, and after each one both must
// satisfy the loss-network invariants: every link's occupancy equals the
// number of in-flight calls whose booked row crosses it, and no up link
// is above capacity. The first byte picks the policy; each further
// three-byte group is one operation. The checked-in corpus under
// testdata/fuzz/FuzzEngineOps runs in plain `go test`.
func FuzzEngineOps(f *testing.F) {
	g, pols := fuzzPolicies(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		pol := pols[int(data[0])%len(pols)]
		fast, err := NewEngine(g, nil, pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := NewEngine(g, nil, pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		slow.tc = incompilable{pol}
		if slow.Recompile() {
			t.Fatal("interpreted twin compiled")
		}
		n := g.NumNodes()
		for i, op := 0, data[1:]; len(op) >= 3; i, op = i+1, op[3:] {
			kind, x, y := op[0]%3, op[1], op[2]
			var desc string
			switch kind {
			case 0:
				// Node n is out of range, and origin == dest is legal
				// input too: both must be refused identically. Ids come
				// from a small space so duplicates occur.
				id := int64(op[0] / 3 % 24)
				o, d := graph.NodeID(int(x)%(n+1)), graph.NodeID(int(y)%(n+1))
				now := float64(i) * 0.01
				df, errF := fast.Admit(now, id, o, d)
				ds, errS := slow.Admit(now, id, o, d)
				desc = fmt.Sprintf("admit(%d, %d→%d)", id, o, d)
				if fmt.Sprint(errF) != fmt.Sprint(errS) {
					t.Fatalf("op %d %s: errors diverge: compiled %v, interpreted %v", i, desc, errF, errS)
				}
				if df.CallID != ds.CallID || df.Admitted != ds.Admitted || df.Alternate != ds.Alternate ||
					df.BlockedAt != ds.BlockedAt || !slices.Equal(df.Links, ds.Links) {
					t.Fatalf("op %d %s: decisions diverge: compiled %+v, interpreted %+v", i, desc, df, ds)
				}
			case 1:
				id := int64(x % 24)
				errF, errS := fast.Release(id), slow.Release(id)
				desc = fmt.Sprintf("release(%d)", id)
				if fmt.Sprint(errF) != fmt.Sprint(errS) {
					t.Fatalf("op %d %s: errors diverge: compiled %v, interpreted %v", i, desc, errF, errS)
				}
			case 2:
				id, down := graph.LinkID(int(x)%g.NumLinks()), y&1 == 1
				fast.SetLinkDown(id, down)
				slow.SetLinkDown(id, down)
				desc = fmt.Sprintf("setLinkDown(%d, %v)", id, down)
			}
			for _, e := range []*Engine{fast, slow} {
				checkOccupancy(t, e, fmt.Sprintf("op %d %s", i, desc))
			}
		}
		if fast.Metrics().FallbackDecisions != 0 {
			t.Fatal("compiled engine took the fallback path")
		}
	})
}

// checkOccupancy asserts the engine's loss-network invariants: occupancy
// is exactly the in-flight calls' booked rows, and no up link exceeds its
// capacity.
func checkOccupancy(t *testing.T, e *Engine, where string) {
	t.Helper()
	want := make([]int, e.g.NumLinks())
	for _, links := range e.inflight {
		for _, id := range links {
			want[id]++
		}
	}
	for id := range want {
		l := graph.LinkID(id)
		occ := e.st.Occupancy(l)
		if occ != want[id] {
			t.Fatalf("%s: link %d occupancy %d, in-flight rows cross it %d times", where, id, occ, want[id])
		}
		if c := e.g.Link(l).Capacity; !e.st.LinkDown(l) && occ > c {
			t.Fatalf("%s: up link %d at occupancy %d over capacity %d", where, id, occ, c)
		}
	}
}
