package main

import (
	"math"
	"slices"
	"time"
)

// failed is the latency recorded for a request that was refused, shed,
// timed out, crashed or answered wrongly: it misses every latency limit,
// so it sorts above every measured latency.
const failed = time.Duration(math.MaxInt64)

// minBeyond is how many samples must lie above a percentile's rank before
// the percentile is reported.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted (ascending) and
// whether the sample supports it: at least minBeyond samples must lie above
// the rank. The value may be failed when failures reach the rank.
func percentile(sorted []time.Duration, q float64) (time.Duration, bool) {
	n := len(sorted)
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	if n-k < minBeyond {
		return 0, false
	}
	return sorted[k-1], true
}

// quantile returns the nearest-rank q-quantile, in seconds, of a sample
// that holds no failures, in any order; 0 when the sample cannot support
// it.
func quantile(ds []time.Duration, q float64) float64 {
	v, _ := percentile(sortedCopy(ds), q)
	return v.Seconds()
}

// legitMS returns the q-quantile of sorted legitimate latencies in
// milliseconds, and whether the sample supports it; 0 when it does not. A
// quantile that lands on a failed request reads as twice the latency
// limit.
func (d *client) legitMS(sorted []time.Duration, q float64) (float64, bool) {
	v, ok := percentile(sorted, q)
	if v == failed {
		v = 2 * d.w.limit
	}
	return v.Seconds() * 1e3, ok
}

// sortedCopy returns ds sorted ascending without touching ds.
func sortedCopy(ds []time.Duration) []time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for even lengths), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// selfTime is the part of an outer span not covered by its child span: the
// serving layer's own time is the Submit span minus the handle span it
// contains. A child that is missing (zero length) leaves the whole span.
func selfTime(outerStart, outerEnd, childStart, childEnd time.Duration) time.Duration {
	d := outerEnd - outerStart
	if childEnd > childStart {
		d -= min(childEnd, outerEnd) - max(childStart, outerStart)
	}
	return d
}

// lagValid reports whether the generator kept to its schedule in a cell:
// its median lateness stays within allowed. Under overload the generator
// shares the processors with the fleet, so single sends run late; a
// median that has drifted means it fell behind and offered less load than
// the cell's rate, so the cell's figures describe a different cell.
func lagValid(lags []time.Duration, allowed time.Duration) bool {
	if len(lags) == 0 {
		return true
	}
	return sortedCopy(lags)[(len(lags)-1)/2] <= allowed
}

// backlogGrew reports whether the number of requests in flight kept rising
// through a cell: the mean over its last quarter of arrivals is more than
// twice the mean over its second quarter, and more than a quarter of most,
// the most requests the cell's deadlines let be in flight at once (rate ×
// latency limit). inflight holds the in-flight count seen at each arrival.
// The second condition keeps a short stall, which a deadline-bounded queue
// absorbs, from reading as growth.
func backlogGrew(inflight []int, most float64) bool {
	n := len(inflight)
	if n < 8 {
		return false
	}
	mean := func(xs []int) float64 {
		s := 0
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	second := mean(inflight[n/4 : n/2])
	last := mean(inflight[3*n/4:])
	return last > 2*second && last > most/4
}
