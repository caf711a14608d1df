package sim

import (
	"cmp"
	"math"
	"slices"
)

// shiftBudget bounds the insertion passes of bucketArrivals and buildRank
// at this many element shifts per call.
const shiftBudget = 8

// orderArrivals sorts calls stably by arrival and numbers their IDs from
// firstID. The generators hand it their calls pair-major: grouped by O-D
// pair in (origin, dest) order, each pair's calls in draw order, every
// arrival in [0, horizon). On such input a stable sort by arrival is the
// (epoch, origin, dest) order with a pair's equal epochs in draw order,
// which is the order the stream's merge heap emits.
//
// The sort is bucketArrivals, O(calls) on Poisson arrivals; when its
// insertion pass runs out of budget, slices.SortStableFunc finishes the
// job, so no input costs more than O(calls·log calls).
func orderArrivals(calls []Call, horizon float64, firstID int) {
	if !bucketArrivals(calls, horizon) {
		slices.SortStableFunc(calls, func(a, b Call) int { return cmp.Compare(a.Arrival, b.Arrival) })
	}
	for i := range calls {
		calls[i].ID = firstID + i
	}
}

// bucketArrivals sorts calls, whose arrivals lie in [0, horizon), stably
// by arrival in place. It counting-sorts the calls on the bucket
// int(a·n/horizon), n = len(calls), moves each call to its bucket slot by
// walking the permutation's cycles, and finishes with an insertion pass
// that shifts a call past every larger arrival before it.
//
// The result is exact whatever the bucket function, because equal
// arrivals share a bucket: the stable scatter keeps them in input order,
// and an insertion pass that stops at the first arrival not larger than
// its own (a strict >) never reorders them. The bucket is monotone in the
// arrival, so a call never shifts past its bucket's start and the pass
// costs O(calls) on arrivals spread like a Poisson process's.
//
// It reports false when the insertion pass exceeds shiftBudget shifts
// per call (arrivals clustered in few buckets) or the calls cannot be
// bucketed; calls are then permuted but equal arrivals are still in input
// order, so a stable sort completes the job. The scratch is two int32s
// per call, freed on return.
func bucketArrivals(calls []Call, horizon float64) bool {
	n := len(calls)
	if n < 2 {
		return true
	}
	scale := float64(n) / horizon
	if n > math.MaxInt32 || !(scale <= math.MaxFloat64) {
		return false
	}
	scratch := make([]int32, 2*n)
	start, dst := scratch[:n], scratch[n:]
	// Pass 1: each call's bucket, kept in dst, and the bucket sizes.
	for i := range calls {
		b := int(calls[i].Arrival * scale)
		if uint(b) >= uint(n) {
			b = n - 1
		}
		dst[i] = int32(b)
		start[b]++
	}
	var off int32
	for b, c := range start {
		start[b] = off
		off += c
	}
	// Pass 2: each call's destination; consecutive slots per bucket keep
	// a bucket's calls in input order.
	for i, b := range dst {
		dst[i] = start[b]
		start[b]++
	}
	// Pass 3: apply the permutation cycle by cycle, carrying one call.
	// A placed slot's dst is reset to itself.
	for i := range calls {
		j := int(dst[i])
		if j == i {
			continue
		}
		c := calls[i]
		for j != i {
			c, calls[j] = calls[j], c
			j, dst[j] = int(dst[j]), int32(j)
		}
		calls[i] = c
		dst[i] = int32(i)
	}
	// Insertion pass.
	budget := shiftBudget * n
	for j := 1; j < n; j++ {
		a := calls[j].Arrival
		if !(calls[j-1].Arrival > a) {
			continue
		}
		c := calls[j]
		k := j
		for k > 0 && calls[k-1].Arrival > a {
			calls[k] = calls[k-1]
			k--
		}
		calls[k] = c
		if budget -= j - k; budget < 0 {
			return false
		}
	}
	return true
}
