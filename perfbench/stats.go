package main

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The tolerance keeps p99.9 of 10000 at rank 9990 despite rounding in p/100.
func rank(n int, p float64) int { return int(math.Ceil(p*float64(n)/100 - 1e-9)) }

// beyond returns how many of n samples lie strictly above the nearest-rank
// p-th percentile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// supported reports whether n samples support the p-th percentile: at
// least minBeyond samples lie beyond it.
func supported(n int, p float64) bool { return n > 0 && beyond(n, p) >= minBeyond }

// tailPercentiles are the candidates for the highest supported percentile.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// highestSupported returns the highest candidate percentile that n samples
// support, or 0 when even the median is not supported.
func highestSupported(n int) float64 {
	for _, p := range tailPercentiles {
		if supported(n, p) {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := rank(len(sorted), p) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median returns the median of xs (the mean of the middle two for an even
// count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// hist is a log-bucketed histogram of positive values in fixed memory.
type hist struct {
	counts    []uint32
	n         int64
	lo        float64 // smallest resolved value; smaller ones share bucket 0
	logGrowth float64 // log of the ratio between bucket bounds
}

// The default histogram has buckets histGrowth wide, so that its
// percentiles keep about three significant digits however many samples a
// run takes.
const (
	histMin    = 1e-5 // smallest resolved value
	histGrowth = 1.001
	histSpan   = 1e9 // histMin·histSpan is the largest resolved value
)

func newHist() *hist { return newHistRange(histMin, histGrowth, histSpan) }

// newHistRange returns a histogram resolving lo to lo·span in buckets
// growth wide.
func newHistRange(lo, growth, span float64) *hist {
	lg := math.Log(growth)
	return &hist{counts: make([]uint32, int(math.Ceil(math.Log(span)/lg))+1), lo: lo, logGrowth: lg}
}

func (h *hist) add(v float64) {
	i := 0
	if v > h.lo {
		i = min(int(math.Log(v/h.lo)/h.logGrowth), len(h.counts)-1)
	}
	h.counts[i]++
	h.n++
}

// merge adds o, which must have the same buckets, into h.
func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func (h *hist) reset() {
	clear(h.counts)
	h.n = 0
}

// percentile returns the nearest-rank p-th percentile, placed within its
// bucket by the rank's position among the bucket's samples.
func (h *hist) percentile(p float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	r := int64(max(rank(int(h.n), p), 1))
	var seen int64
	for i, c := range h.counts {
		if seen+int64(c) >= r {
			frac := (float64(r-seen) - 0.5) / float64(c)
			return h.lo * math.Exp((float64(i)+frac)*h.logGrowth)
		}
		seen += int64(c)
	}
	return math.NaN() // unreachable: the counts sum to n
}

// parseServerTiming reads the queue and eval durations (milliseconds) of a
// serve Server-Timing header, e.g. "queue;dur=0.0012, eval;dur=0.0310".
// hasEval is false when the request never reached evaluation.
func parseServerTiming(h string) (queueMS, evalMS float64, hasQueue, hasEval bool) {
	for _, part := range strings.Split(h, ",") {
		name, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		for _, p := range strings.Split(params, ";") {
			k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
			if !ok || k != "dur" {
				continue
			}
			d, err := strconv.ParseFloat(v, 64)
			if err != nil {
				continue
			}
			switch name {
			case "queue":
				queueMS, hasQueue = d, true
			case "eval":
				evalMS, hasEval = d, true
			}
		}
	}
	return queueMS, evalMS, hasQueue, hasEval
}

// coverage accumulates the length of the union of intervals clipped to a
// parent interval. Intervals must arrive in non-decreasing start order, as
// they do from one goroutine's sequential calls; overlapping intervals are
// counted once. A parent's self time is its length minus the covered
// length.
type coverage struct {
	lo, hi  time.Time // the parent interval
	reached time.Time // end of the union so far
	covered time.Duration
}

func newCoverage(lo, hi time.Time) coverage { return coverage{lo: lo, hi: hi, reached: lo} }

// add covers [start, end] (clipped to the parent).
func (c *coverage) add(start, end time.Time) {
	if end.After(c.hi) {
		end = c.hi
	}
	if start.Before(c.reached) {
		start = c.reached
	}
	if !end.After(start) {
		return
	}
	c.covered += end.Sub(start)
	c.reached = end
}

// self returns the parent's length not covered by any child.
func (c *coverage) self() time.Duration { return c.hi.Sub(c.lo) - c.covered }

// outcome classifies one serving request.
type outcome int

const (
	outcomeOK      outcome = iota
	outcomeWrong           // 200 with an answer that differs from the direct evaluation
	outcomeShed            // 429 before or while queued
	outcomeFailure         // any other status
)

// tally counts serving outcomes. Every request that is not a correct 200
// counts as failed, a wrong answer included.
type tally struct {
	attempted, ok, wrong, shed, other int64
}

func (t *tally) add(o outcome) {
	t.attempted++
	switch o {
	case outcomeOK:
		t.ok++
	case outcomeWrong:
		t.wrong++
	case outcomeShed:
		t.shed++
	default:
		t.other++
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.ok += o.ok
	t.wrong += o.wrong
	t.shed += o.shed
	t.other += o.other
}

func (t tally) failed() int64 { return t.attempted - t.ok }

// failFrac is failed over attempted (0 with nothing attempted).
func (t tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted)
}

// classify maps a response status and body check to an outcome.
func classify(status int, bodyMatches bool) outcome {
	switch {
	case status == 200 && bodyMatches:
		return outcomeOK
	case status == 200:
		return outcomeWrong
	case status == 429:
		return outcomeShed
	default:
		return outcomeFailure
	}
}

// Sub-window latency histograms resolve 1 µs to 10 ms in 4% buckets, small
// enough that every c2 client keeps one per sub-window of a run.
const (
	subHistMin    = 1e-3 // milliseconds
	subHistGrowth = 1.04
	subHistSpan   = 1e4
)

func newSubHist() *hist { return newHistRange(subHistMin, subHistGrowth, subHistSpan) }

// subWindow is what one client saw in one sub-window of a serving window:
// whether the window was recorded, its share of correct answers, and, for
// a level with a gated median, the latency of every request that completed
// in it.
type subWindow struct {
	recorded bool
	ok       float64
	lat      *hist // milliseconds; nil when not kept
}

// addRequest records a request that ran from a to b, offsets from the start
// of a window whose sub-windows of length are subs. Its latency counts in
// the sub-window it completed in. A correct answer counts in every
// sub-window its request overlaps, in proportion to the overlap, so that a
// throughput reads on a continuous scale even when a sub-window holds few
// requests. Time past the last sub-window is dropped.
func addRequest(subs []subWindow, length time.Duration, o outcome, a, b time.Duration) {
	if j := int(b / length); j < len(subs) && subs[j].lat != nil {
		subs[j].lat.add(float64(b-a) / float64(time.Millisecond))
	}
	if o != outcomeOK {
		return
	}
	if b <= a {
		if j := int(b / length); j < len(subs) {
			subs[j].ok++
		}
		return
	}
	for j := int(a / length); j < len(subs) && time.Duration(j)*length < b; j++ {
		lo, hi := max(a, time.Duration(j)*length), min(b, time.Duration(j+1)*length)
		subs[j].ok += float64(hi-lo) / float64(b-a)
	}
}

// subWindowRPS merges the clients' sub-windows index by index (each
// client's slice has one entry per sub-window of the level) and returns
// the p-th percentile of the recorded sub-windows' throughputs, in correct
// answers per second; NaN when none was recorded.
func subWindowRPS(clients [][]subWindow, length time.Duration, p float64) float64 {
	var rates []float64
	for j := range first(clients) {
		if !clients[0][j].recorded {
			continue
		}
		ok := 0.0
		for _, subs := range clients {
			ok += subs[j].ok
		}
		rates = append(rates, ok/length.Seconds())
	}
	sort.Float64s(rates)
	return percentile(rates, p)
}

// sharedRPS estimates the throughput of tenants that share the cores.
// tenants[i] holds tenant i's clients' sub-windows, and cost[i] is the time
// one request of tenant i takes with a core of its own. A sub-window's
// work rate weighs each answer by its tenant's cost, so a sub-window that
// happened to serve more of a cheaper tenant does not read as faster. The
// level's work rate W is the p-th percentile over the recorded
// sub-windows, and tenant i's throughput is its share s_i of the level's
// answers of W / Σ s_u·cost_u, the answer rate that W buys at the level's
// split.
func sharedRPS(tenants [][][]subWindow, cost []float64, length time.Duration, p float64) []float64 {
	answers := make([]float64, len(tenants))
	var work []float64
	for j := range first(first(tenants)) {
		if !tenants[0][0][j].recorded {
			continue
		}
		w := 0.0
		for i, clients := range tenants {
			for _, subs := range clients {
				w += subs[j].ok * cost[i]
				answers[i] += subs[j].ok
			}
		}
		work = append(work, w/length.Seconds())
	}
	sort.Float64s(work)
	total, perAnswer := 0.0, 0.0
	for _, a := range answers {
		total += a
	}
	for i, a := range answers {
		perAnswer += a / total * cost[i]
	}
	rps := make([]float64, len(tenants))
	for i, a := range answers {
		rps[i] = percentile(work, p) / perAnswer * a / total
	}
	return rps
}

// subWindowP50 merges the clients' sub-windows index by index and returns
// the p-th percentile of their median latencies, over the recorded
// sub-windows that hold a request; NaN when none does.
func subWindowP50(clients [][]subWindow, p float64) float64 {
	var medians []float64
	h := newSubHist()
	for j := range first(clients) {
		h.reset()
		for _, subs := range clients {
			if subs[j].recorded {
				h.merge(subs[j].lat)
			}
		}
		if h.n > 0 {
			medians = append(medians, h.percentile(50))
		}
	}
	sort.Float64s(medians)
	return percentile(medians, p)
}

// first returns xs[0], or the zero value when xs is empty.
func first[T any](xs []T) T {
	var zero T
	if len(xs) == 0 {
		return zero
	}
	return xs[0]
}
