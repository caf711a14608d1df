package experiments

import (
	"math"
	"testing"
)

// pinPoint is one sweep point as raw IEEE-754 bits (X, Y, Err).
type pinPoint struct{ x, y, err uint64 }

// nsfnetSweepPin is NSFNetSweep({8,10,12}, H=11, no Ott–Krishnan, 2 seeds)
// recorded bit for bit before the trace-merge, departure-heap and
// Erlang-bound kernels were rewritten for speed. Those rewrites change only
// memory layout and evaluation order, never the arithmetic, so every bit
// must survive them — the erlang-bound series included.
var nsfnetSweepPin = []struct {
	name   string
	points []pinPoint
}{
	{"single-path", []pinPoint{
		{0x4020000000000000, 0x3fbabf7f49aae95d, 0x3f58c95d4310c4a9}, // 8 0.10448451565290413 0.0015128527413817239
		{0x4024000000000000, 0x3fc54e5d2ef5aa3c, 0x3f578dfcaf588cfc}, // 10 0.16645397942495943 0.001437660944596796
		{0x4028000000000000, 0x3fcc9c29d1a25249, 0x3f43e88ead1f93a3}, // 12 0.22351572738684158 0.0006075569783631118
	}},
	{"uncontrolled-alternate", []pinPoint{
		{0x4020000000000000, 0x3fa144c69b3785ce, 0x3f2085e996657685}, // 8 0.033727842757581436 0.00012606121453988622
		{0x4024000000000000, 0x3fc1e3c752f67946, 0x3f62b263e30c9313}, // 10 0.13976375151555426 0.0022823286930296976
		{0x4028000000000000, 0x3fccef745d9e3432, 0x3f397daa7ae6553c}, // 12 0.2260575730437338 0.0003889600001455056
	}},
	{"controlled-alternate", []pinPoint{
		{0x4020000000000000, 0x3fa5917c454fefe8, 0x3f1bddf8e68d7247}, // 8 0.04212559076401573 0.00010630447071719686
		{0x4024000000000000, 0x3fc3a1b5abdb84da, 0x3f6378495578a92f}, // 10 0.15337248698691647 0.0023766929914660543
		{0x4028000000000000, 0x3fcc5ad3a46e45d8, 0x3ed58ad2d87647ae}, // 12 0.22152181176038144 5.136079728089715e-06
	}},
	{"erlang-bound", []pinPoint{
		{0x4020000000000000, 0x3f9ce094bae7fa27, 0x0000000000000000}, // 8 0.02820045843872712 0
		{0x4024000000000000, 0x3fbffb898480d688, 0x0000000000000000}, // 10 0.12493190274184418 0
		{0x4028000000000000, 0x3fca4fd6113b238f, 0x0000000000000000}, // 12 0.20556140748365379 0
	}},
}

// TestGoldenNSFNetSweepPin holds the three-load NSFNet sweep to its
// recorded bits: trace generation, every policy's replay and the Erlang
// bound all feed it.
func TestGoldenNSFNetSweepPin(t *testing.T) {
	sw, err := NSFNetSweep([]float64{8, 10, 12}, 11, false, SimParams{Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Series) != len(nsfnetSweepPin) {
		t.Fatalf("%d series, want %d", len(sw.Series), len(nsfnetSweepPin))
	}
	for i, want := range nsfnetSweepPin {
		got := sw.Series[i]
		if got.Name != want.name || len(got.Points) != len(want.points) {
			t.Fatalf("series %d: %q with %d points, want %q with %d",
				i, got.Name, len(got.Points), want.name, len(want.points))
		}
		for j, w := range want.points {
			p := got.Points[j]
			g := pinPoint{math.Float64bits(p.X), math.Float64bits(p.Y), math.Float64bits(p.Err)}
			if g != w {
				t.Errorf("%s point %d: got (%v, %v, %v), want (%v, %v, %v)", want.name, j,
					p.X, p.Y, p.Err,
					math.Float64frombits(w.x), math.Float64frombits(w.y), math.Float64frombits(w.err))
			}
		}
	}
}
