package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// tailLevels are the percentiles the tail rule chooses from, highest first.
var tailLevels = []float64{99.9, 99, 95, 90, 75, 50}

// Tail is a reported tail percentile: its value, the percentile it is, and
// the sample count behind it. Percentile is 100 when too few samples exist
// for any level in tailLevels; Value is then the maximum.
type Tail struct {
	Value      float64
	Percentile float64
	Samples    int
}

// Label renders the percentile as "p99 of 5021".
func (t Tail) Label() string {
	if t.Percentile == 100 {
		return fmt.Sprintf("max of %d", t.Samples)
	}
	return fmt.Sprintf("p%g of %d", t.Percentile, t.Samples)
}

// rank returns the 1-based nearest-rank index of percentile p in n sorted
// samples: the smallest k with k >= p/100·n.
func rank(p float64, n int) int {
	// The epsilon keeps float noise (99.9/100·10000 = 9990.000000000002)
	// from pushing an exact rank one up.
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// tailOf reports the highest percentile in tailLevels that has at least ten
// samples strictly beyond its nearest-rank position, so that the tail is
// never read off a handful of points. sorted must be ascending and non-empty.
func tailOf(sorted []float64) Tail {
	n := len(sorted)
	for _, p := range tailLevels {
		k := rank(p, n)
		if n-k >= 10 {
			return Tail{Value: sorted[k-1], Percentile: p, Samples: n}
		}
	}
	return Tail{Value: sorted[n-1], Percentile: 100, Samples: n}
}

// percentile returns the nearest-rank percentile p of ascending samples.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rank(p, len(sorted))-1]
}

// median returns the median of xs (mean of the middle two for even
// counts); xs is not modified.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sum returns the sum of xs.
func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// mean returns the mean of xs, 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// metricName is the grammar every metric and workload name obeys: a letter
// or digit first, then at most 63 letters, digits, '_', '.' or '-'.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)

// unitName is the grammar of a metric unit.
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)

// validName reports whether s is a legal metric or workload name.
func validName(s string) bool { return metricName.MatchString(s) }

// validUnit reports whether s is a legal unit.
func validUnit(s string) bool { return unitName.MatchString(s) }
