package erlang

import (
	"math"
	"testing"
	"testing/quick"
)

// directB computes Erlang-B from the defining sum, for cross-checking the
// recursion at moderate sizes.
func directB(load float64, capacity int) float64 {
	num := 1.0
	den := 1.0
	term := 1.0
	for k := 1; k <= capacity; k++ {
		term *= load / float64(k)
		den += term
	}
	num = term
	return num / den
}

func TestBKnownValues(t *testing.T) {
	cases := []struct {
		load     float64
		capacity int
		want     float64
		tol      float64
	}{
		{0, 0, 1, 0},
		{0, 5, 0, 0},
		{1, 1, 0.5, 1e-12},
		{2, 2, 0.4, 1e-12},         // B(2,2) = (2^2/2)/(1+2+2) = 2/5
		{10, 10, 0.21458, 5e-5},    // standard table value
		{100, 100, 0.075700, 5e-6}, // standard table value
		// Regression anchors cross-validated against the direct defining sum
		// (see TestBMatchesDirectSum).
		{120, 120, 0.0694187690644297, 1e-12},    // heavy-traffic regime used in §3.2
		{50, 100, 1.6303193524036482e-10, 1e-22}, // deep light-load tail
		{84.1, 100, 0.010071705070961074, 1e-12}, // interior point
	}
	for _, c := range cases {
		got := B(c.load, c.capacity)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("B(%v,%d) = %v, want %v (±%v)", c.load, c.capacity, got, c.want, c.tol)
		}
	}
}

func TestBMatchesDirectSum(t *testing.T) {
	for _, load := range []float64{0.5, 1, 7.3, 25, 60, 99.5, 140} {
		for _, c := range []int{1, 2, 5, 17, 60, 100} {
			got := B(load, c)
			want := directB(load, c)
			if math.Abs(got-want) > 1e-9*math.Max(want, 1e-300) && math.Abs(got-want) > 1e-12 {
				t.Errorf("B(%v,%d) = %v, direct sum %v", load, c, got, want)
			}
		}
	}
}

func TestBCheckedErrors(t *testing.T) {
	if _, err := BChecked(-1, 10); err == nil {
		t.Error("BChecked(-1,10): want error")
	}
	if _, err := BChecked(1, -1); err == nil {
		t.Error("BChecked(1,-1): want error")
	}
	if _, err := BChecked(math.NaN(), 1); err == nil {
		t.Error("BChecked(NaN,1): want error")
	}
	if _, err := BChecked(math.Inf(1), 1); err == nil {
		t.Error("BChecked(+Inf,1): want error")
	}
}

func TestBMonotonicity(t *testing.T) {
	// B decreases in capacity and increases in load.
	cfg := &quick.Config{MaxCount: 300}
	f := func(loadSeed uint16, capSeed uint8) bool {
		load := 0.01 + float64(loadSeed)/float64(math.MaxUint16)*200
		capacity := 1 + int(capSeed)%150
		b0 := B(load, capacity)
		b1 := B(load, capacity+1)
		b2 := B(load*1.1, capacity)
		return b1 <= b0 && b2 >= b0 && b0 >= 0 && b0 <= 1
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestInverseBConsistency(t *testing.T) {
	for _, load := range []float64{0.3, 1, 10, 74, 100, 167} {
		for _, c := range []int{0, 1, 10, 50, 100} {
			y := InverseB(load, c)
			b := B(load, c)
			if b == 0 {
				continue
			}
			if rel := math.Abs(y*b - 1); rel > 1e-9 {
				t.Errorf("InverseB(%v,%d)*B = 1%+e", load, c, rel)
			}
		}
	}
}

func TestRatioMatchesQuotient(t *testing.T) {
	for _, load := range []float64{1, 16, 74, 103, 167} {
		for _, c0 := range []int{0, 10, 44, 90, 100} {
			for _, c1 := range []int{100, 120} {
				if c1 < c0 {
					continue
				}
				got := Ratio(load, c1, c0)
				want := B(load, c1) / B(load, c0)
				if math.Abs(got-want) > 1e-9*want && math.Abs(got-want) > 1e-15 {
					t.Errorf("Ratio(%v,%d,%d) = %v, want %v", load, c1, c0, got, want)
				}
			}
		}
	}
}

// TestProtectionLevelTable1 reproduces every row of the paper's Table 1:
// state-protection levels for the NSFNet links (C=100) at the nominal load,
// for H=6 and H=11. The published Λ values are "rounded to the nearest
// integer" (paper, Table 1 caption); 26 of the 30 rows match exactly when
// computed from the published integer, and for the remaining 4 rows
// (Λ=63, 103, 104, 107 — all near a protection-level step) an unrounded Λ
// within the ±0.5 rounding interval reproduces both published values, so the
// test accepts any r achievable within that interval.
func TestProtectionLevelTable1(t *testing.T) {
	rows := []struct {
		load    float64
		r6, r11 int
	}{
		{74, 7, 10}, {77, 8, 12}, {71, 6, 8}, {37, 2, 3}, {46, 3, 4},
		{34, 2, 3}, {16, 1, 2}, {16, 1, 2}, {49, 3, 4}, {54, 3, 4},
		{63, 4, 6}, {103, 56, 100}, {49, 3, 4}, {65, 5, 6}, {81, 11, 15},
		{87, 16, 26}, {74, 7, 10}, {73, 7, 9}, {71, 6, 8}, {43, 3, 3},
		{76, 8, 11}, {124, 100, 100}, {39, 2, 3}, {49, 3, 4}, {107, 70, 100},
		{48, 3, 4}, {167, 100, 100}, {85, 14, 22}, {104, 60, 100}, {154, 100, 100},
	}
	const capacity = 100
	// reachable reports whether some unrounded load in [load−0.5, load+0.5)
	// yields exactly (r6, r11). Since ProtectionLevel is nondecreasing in
	// load, it suffices to check that the published pair lies between the
	// pairs at the interval endpoints.
	reachable := func(load float64, r6, r11 int) bool {
		lo6 := ProtectionLevel(load-0.4999, capacity, 6)
		hi6 := ProtectionLevel(load+0.4999, capacity, 6)
		lo11 := ProtectionLevel(load-0.4999, capacity, 11)
		hi11 := ProtectionLevel(load+0.4999, capacity, 11)
		return lo6 <= r6 && r6 <= hi6 && lo11 <= r11 && r11 <= hi11
	}
	exact := 0
	for _, row := range rows {
		g6 := ProtectionLevel(row.load, capacity, 6)
		g11 := ProtectionLevel(row.load, capacity, 11)
		if g6 == row.r6 && g11 == row.r11 {
			exact++
			continue
		}
		if !reachable(row.load, row.r6, row.r11) {
			t.Errorf("Λ=%v: got (r6=%d, r11=%d), want (%d, %d), not reachable within rounding",
				row.load, g6, g11, row.r6, row.r11)
		}
	}
	if exact < 26 {
		t.Errorf("only %d/30 rows matched exactly at the published integer Λ; want >= 26", exact)
	}
}

func TestProtectionLevelEdgeCases(t *testing.T) {
	if got := ProtectionLevel(0, 100, 6); got != 0 {
		t.Errorf("zero load: got r=%d, want 0", got)
	}
	if got := ProtectionLevel(10, 0, 6); got != 0 {
		t.Errorf("zero capacity: got r=%d, want 0", got)
	}
	// H=1: any alternate call displaces at most 1 primary call for free, so
	// the minimal r satisfying ratio <= 1 is 0.
	if got := ProtectionLevel(80, 100, 1); got != 0 {
		t.Errorf("H=1: got r=%d, want 0", got)
	}
	// Hopeless overload: B(400,100) ≈ 0.75 > 1/2, so no r works; expect C.
	if got := ProtectionLevel(400, 100, 2); got != 100 {
		t.Errorf("overload: got r=%d, want 100", got)
	}
}

func TestProtectionLevelDefinitionMinimal(t *testing.T) {
	// r is the *smallest* level satisfying Eq. 15: r satisfies it, r−1 doesn't.
	for _, load := range []float64{16, 43, 74, 87, 103, 124} {
		for _, h := range []int{2, 6, 11, 120} {
			r := ProtectionLevel(load, 100, h)
			target := 1 / float64(h)
			if r < 100 {
				if got := Ratio(load, 100, 100-r); got > target+1e-12 {
					t.Errorf("Λ=%v H=%d: r=%d does not satisfy Eq.15 (ratio %v)", load, h, r, got)
				}
			}
			if r > 0 && r <= 100 {
				if got := Ratio(load, 100, 100-(r-1)); got <= target && r < 100 {
					t.Errorf("Λ=%v H=%d: r=%d not minimal (r−1 ratio %v <= %v)", load, h, r, got, target)
				}
			}
		}
	}
}

func TestProtectionLevelMonotone(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(loadSeed uint16, hSeed uint8) bool {
		load := 1 + float64(loadSeed)/float64(math.MaxUint16)*150
		h := 1 + int(hSeed)%20
		r1 := ProtectionLevel(load, 100, h)
		r2 := ProtectionLevel(load, 100, h+1)    // more hops → more protection
		r3 := ProtectionLevel(load*1.05, 100, h) // more load → more protection
		return r2 >= r1 && r3 >= r1
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestLossBound(t *testing.T) {
	// Theorem 1 bound with r=0 is 1 (accepting an alternate call displaces at
	// most one primary call in expectation).
	if got := LossBound(74, 100, 0); math.Abs(got-1) > 1e-12 {
		t.Errorf("LossBound r=0: got %v, want 1", got)
	}
	// Clamping.
	if got := LossBound(74, 100, -5); math.Abs(got-1) > 1e-12 {
		t.Errorf("LossBound r<0: got %v, want 1", got)
	}
	if got, want := LossBound(74, 100, 1000), LossBound(74, 100, 100); got != want {
		t.Errorf("LossBound r>C: got %v, want %v", got, want)
	}
	// The bound shrinks monotonically in r.
	prev := math.Inf(1)
	for r := 0; r <= 100; r += 5 {
		b := LossBound(74, 100, r)
		if b > prev+1e-15 {
			t.Errorf("LossBound not monotone at r=%d: %v > %v", r, b, prev)
		}
		prev = b
	}
}

func TestOfferedFromBlocking(t *testing.T) {
	for _, c := range []int{1, 10, 100} {
		for _, bl := range []float64{0.001, 0.01, 0.1, 0.5} {
			load, err := OfferedFromBlocking(bl, c)
			if err != nil {
				t.Fatalf("OfferedFromBlocking(%v,%d): %v", bl, c, err)
			}
			if got := B(load, c); math.Abs(got-bl) > 1e-7 {
				t.Errorf("round trip B(%v,%d) = %v, want %v", load, c, got, bl)
			}
		}
	}
	if _, err := OfferedFromBlocking(0, 10); err == nil {
		t.Error("blocking=0: want error")
	}
	if _, err := OfferedFromBlocking(1, 10); err == nil {
		t.Error("blocking=1: want error")
	}
	if _, err := OfferedFromBlocking(0.5, 0); err == nil {
		t.Error("capacity=0: want error")
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("B negative load", func() { B(-1, 10) })
	mustPanic("InverseB zero load", func() { InverseB(0, 10) })
	mustPanic("InverseB negative capacity", func() { InverseB(1, -1) })
	mustPanic("Ratio c1<c0", func() { Ratio(1, 5, 10) })
	mustPanic("ProtectionLevel bad H", func() { ProtectionLevel(1, 10, 0) })
	mustPanic("ProtectionLevel bad capacity", func() { ProtectionLevel(1, -1, 2) })
	mustPanic("ProtectionLevel bad load", func() { ProtectionLevel(-1, 10, 2) })
}

func TestProtectionLevelTraced(t *testing.T) {
	// The traced search must visit r = 0..result in order, report monotone
	// non-increasing loss ratios, agree with ProtectionLevel, and end with
	// the first ratio at or below 1/H.
	for _, tc := range []struct {
		load   float64
		cap, h int
	}{
		{87.3, 100, 11}, {87.3, 100, 6}, {120, 100, 11}, {30, 48, 3},
	} {
		var rs []int
		var ratios []float64
		got := ProtectionLevelTraced(tc.load, tc.cap, tc.h, func(r int, ratio float64) {
			rs = append(rs, r)
			ratios = append(ratios, ratio)
		})
		want := ProtectionLevel(tc.load, tc.cap, tc.h)
		if got != want {
			t.Fatalf("(%v,%d,%d): traced %d != untraced %d", tc.load, tc.cap, tc.h, got, want)
		}
		if len(rs) == 0 {
			t.Fatalf("(%v,%d,%d): no trace", tc.load, tc.cap, tc.h)
		}
		for i, r := range rs {
			if r != i {
				t.Fatalf("trace visited r=%d at step %d", r, i)
			}
			if i > 0 && ratios[i] > ratios[i-1]+1e-12 {
				t.Fatalf("loss ratio increased at r=%d: %v > %v", r, ratios[i], ratios[i-1])
			}
			if want := Ratio(tc.load, tc.cap, tc.cap-r); math.Abs(ratios[i]-want) > 1e-9 {
				t.Fatalf("r=%d ratio %v, want Ratio()=%v", r, ratios[i], want)
			}
		}
		target := 1 / float64(tc.h)
		last := ratios[len(ratios)-1]
		if got < tc.cap && last > target {
			t.Fatalf("search stopped at ratio %v above target %v", last, target)
		}
		for _, ratio := range ratios[:len(ratios)-1] {
			if ratio <= target {
				t.Fatalf("search passed a satisfying ratio %v (target %v)", ratio, target)
			}
		}
	}
	// Zero load: no candidates to search, level 0, hook never fires.
	called := false
	if got := ProtectionLevelTraced(0, 100, 11, func(int, float64) { called = true }); got != 0 || called {
		t.Fatalf("zero load: got %d, called=%v", got, called)
	}
}

// TestBPairMatchesB holds the paired kernel to two separate B calls bit
// for bit, over chains of equal and unequal length, zero loads and zero
// capacities, and requires B's panic on invalid input.
func TestBPairMatchesB(t *testing.T) {
	loads := []float64{0, 1e-9, 0.5, 3, 74.2, 90, 250.75, 1e6}
	caps := []int{0, 1, 2, 17, 100, 101, 640}
	for _, l1 := range loads {
		for _, c1 := range caps {
			for _, l2 := range loads {
				for _, c2 := range caps {
					b1, b2 := BPair(l1, c1, l2, c2)
					w1, w2 := B(l1, c1), B(l2, c2)
					if math.Float64bits(b1) != math.Float64bits(w1) || math.Float64bits(b2) != math.Float64bits(w2) {
						t.Fatalf("BPair(%v, %d, %v, %d) = (%v, %v), B gives (%v, %v)", l1, c1, l2, c2, b1, b2, w1, w2)
					}
				}
			}
		}
	}
	for _, bad := range [][2]float64{{-1, 3}, {3, math.NaN()}, {math.Inf(1), 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BPair(%v, 5, %v, 5): want panic", bad[0], bad[1])
				}
			}()
			BPair(bad[0], 5, bad[1], 5)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("BPair with a negative capacity: want panic")
			}
		}()
		BPair(3, 5, 3, -1)
	}()
}
