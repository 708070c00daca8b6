package main

import (
	"fmt"
	"math"
	"net/http"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: below that, the tail is a handful of samples and says nothing
// repeatable, so the percentile falls back to the median.
const minBeyond = 10

// median returns the median of xs (the mean of the middle two for an
// even count), or NaN when xs is empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile of xs when at least
// minBeyond samples lie above it. Otherwise it returns the median with
// ok=false: the caller reports the median and the sample count instead of
// a tail the sample cannot support.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := sortedCopy(xs)
	idx := int(math.Ceil(p*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if len(s)-1-idx < minBeyond {
		return median(s), false
	}
	return s[idx], true
}

// quartiles returns the first and third quartiles by the exclusive
// method of Python's statistics.quantiles(xs, n=4), the spread measure
// the benchmark's acceptance rule is stated in. It needs two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tally counts attempted operations and the failed ones by reason. A
// failure is anything a user would not accept as an answer: a non-200
// status (429 admission refusals and 413 budget refusals included), a
// transport error, or a response that fails its correctness check.
type tally struct {
	attempted int
	failed    int
	reasons   map[string]int
}

// record classifies one response (status 0 with err set for a transport
// error) and reports whether it succeeded.
func (t *tally) record(status int, err error) bool {
	t.attempted++
	switch {
	case err != nil:
		t.fail("transport")
	case status != http.StatusOK:
		t.fail(fmt.Sprintf("status_%d", status))
	default:
		return true
	}
	return false
}

// checkFailed marks an operation that was already counted as attempted
// (and succeeded at the transport level) as failed by a correctness check.
func (t *tally) checkFailed(reason string) {
	t.fail("check_" + reason)
}

func (t *tally) fail(reason string) {
	t.failed++
	if t.reasons == nil {
		t.reasons = map[string]int{}
	}
	t.reasons[reason]++
}

// merge adds o's counts into t.
func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for r, n := range o.reasons {
		if t.reasons == nil {
			t.reasons = map[string]int{}
		}
		t.reasons[r] += n
	}
}
