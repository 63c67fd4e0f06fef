package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// subWindows is how many equal parts a measured window is cut into; a
// reported value is the median of the per-part values.
const subWindows = 5

// runner executes requests against targets and records samples. acked,
// when set, is the growing stream's acknowledged row count: the writer
// advances it and readers note it around each request for the oracle.
type runner struct {
	acked *atomic.Int64
}

func (rn *runner) exec(ctx context.Context, targets []target, w int, r *request, idx int, t0 time.Time, due time.Duration) sample {
	t := targets[w]
	s := sample{idx: idx, worker: w, class: r.Class, due: due, ackedBefore: -1, ackedAfter: -1}
	if rn.acked != nil {
		s.ackedBefore = rn.acked.Load()
	}
	s.start = time.Since(t0)
	rep, err := t.Do(ctx, r)
	s.end = time.Since(t0)
	s.err = err
	if rn.acked != nil {
		if r.Class == ingest && err == nil {
			rn.acked.Store(rep.Acked)
		}
		s.ackedAfter = rn.acked.Load()
	}
	if err == nil && (r.Verify || r.Class == ingest) {
		s.rep = rep
	}
	return s
}

// closedLoop runs one goroutine per target; each walks its own schedule
// (cyclically) and sends the next request as soon as the previous one
// completes, until dur has elapsed. Responses are kept for verification
// on the first pass over a schedule only.
func (rn *runner) closedLoop(ctx context.Context, targets []target, scheds [][]request, dur time.Duration) []sample {
	out := make([][]sample, len(targets))
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := range targets {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sched := scheds[w]
			for i := 0; time.Since(t0) < dur && ctx.Err() == nil; i++ {
				r := sched[i%len(sched)]
				if i >= len(sched) {
					r.Verify = false
				}
				s := rn.exec(ctx, targets, w, &r, i%len(sched), t0, 0)
				s.due = s.start
				out[w] = append(out[w], s)
			}
		}(w)
	}
	wg.Wait()
	var all []sample
	for _, o := range out {
		all = append(all, o...)
	}
	return all
}

// openLoop sends the pre-generated schedule at its due times regardless
// of how fast replies come back: each of the targets' goroutines claims
// the next unsent request, waits for its due time, and sends it. When all
// are busy, later requests wait, and that wait counts: latency is taken
// from the due time. It returns once every scheduled request has
// completed; backlogEnd is how many were still outstanding when the
// nominal window closed.
func (rn *runner) openLoop(ctx context.Context, targets []target, sched []request, dur time.Duration) (samples []sample, backlogEnd int) {
	samples = make([]sample, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := range targets {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				r := &sched[i]
				if wait := r.Due - time.Since(t0); wait > 0 {
					time.Sleep(wait)
				}
				samples[i] = rn.exec(ctx, targets, w, r, i, t0, r.Due)
			}
		}(w)
	}
	wg.Wait()
	n := int(next.Load())
	if n > len(sched) {
		n = len(sched)
	}
	samples = samples[:n]
	for _, s := range samples {
		if s.end > dur {
			backlogEnd++
		}
	}
	return samples, backlogEnd
}

// latencyMs is a request's latency: from its due time in an open loop,
// from its send time in a closed loop (where due == start).
func (s sample) latencyMs() float64 { return float64(s.end-s.due) / float64(time.Millisecond) }

// stat is a reported value: the median of the per-sub-window values, the
// distance between their quartiles, and the samples behind them.
type stat struct {
	value, iqr float64
	n          int
	ok         bool
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func medianIQR(vals []float64) (med, iqr float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5), quantile(s, 0.75) - quantile(s, 0.25)
}

// subWindowValues cuts [0, dur) into subWindows parts by each sample's
// due time and applies f to the parts that have samples.
func subWindowValues(samples []sample, dur time.Duration, keep func(sample) bool, f func(part []sample, width time.Duration) (float64, bool)) (vals []float64, n int) {
	parts := make([][]sample, subWindows)
	for _, s := range samples {
		if s.err != nil || !keep(s) {
			continue
		}
		i := int(int64(s.due) * subWindows / int64(dur))
		if i < 0 || i >= subWindows {
			continue // sent after the nominal close (closed-loop overrun)
		}
		parts[i] = append(parts[i], s)
		n++
	}
	for _, p := range parts {
		if v, ok := f(p, dur/subWindows); ok {
			vals = append(vals, v)
		}
	}
	return vals, n
}

// perSubWindow reports the median of the per-sub-window values of f.
func perSubWindow(samples []sample, dur time.Duration, keep func(sample) bool, f func(part []sample, width time.Duration) (float64, bool)) stat {
	vals, n := subWindowValues(samples, dur, keep, f)
	if len(vals) == 0 {
		return stat{}
	}
	med, iqr := medianIQR(vals)
	return stat{value: med, iqr: iqr, n: n, ok: true}
}

// latencyQuantile reports a latency quantile of the kept samples, pooled
// over the whole window (a class may have a handful of samples per
// sub-window, and on a growing stream its latency trends with time); the
// spread printed beside it is that of the per-sub-window quantiles.
func latencyQuantile(samples []sample, dur time.Duration, q float64, keep func(sample) bool) stat {
	var lat []float64
	for _, s := range samples {
		if s.err == nil && keep(s) && s.due < dur {
			lat = append(lat, s.latencyMs())
		}
	}
	st := latencySpread(samples, dur, q, keep)
	if len(lat) == 0 {
		return stat{}
	}
	sort.Float64s(lat)
	st.value, st.n, st.ok = quantile(lat, q), len(lat), true
	return st
}

func latencySpread(samples []sample, dur time.Duration, q float64, keep func(sample) bool) stat {
	return perSubWindow(samples, dur, keep, func(part []sample, _ time.Duration) (float64, bool) {
		if len(part) == 0 {
			return 0, false
		}
		lat := make([]float64, len(part))
		for i, s := range part {
			lat[i] = s.latencyMs()
		}
		sort.Float64s(lat)
		return quantile(lat, q), true
	})
}

// throughput reports completed requests per second of the kept samples
// over the whole window, weighting each by weight (1 for a query, rows
// for an ingest batch); the spread printed beside it is that of the
// per-sub-window rates.
func throughput(samples []sample, dur time.Duration, keep func(sample) bool, weight func(sample) float64) stat {
	st := perSubWindow(samples, dur, keep, func(part []sample, width time.Duration) (float64, bool) {
		var sum float64
		for _, s := range part {
			sum += weight(s)
		}
		return sum / width.Seconds(), true
	})
	var sum float64
	for _, s := range samples {
		if s.err == nil && keep(s) && s.end <= dur {
			sum += weight(s)
		}
	}
	st.value, st.ok = sum/dur.Seconds(), true
	return st
}

// tailQuantile picks the highest of p99, p95, p90 that leaves at least
// ten samples beyond it in every sub-window.
func tailQuantile(samples []sample, dur time.Duration, keep func(sample) bool) float64 {
	counts := make([]int, subWindows)
	for _, s := range samples {
		if s.err != nil || !keep(s) {
			continue
		}
		if i := int(int64(s.due) * subWindows / int64(dur)); i >= 0 && i < subWindows {
			counts[i]++
		}
	}
	least := counts[0]
	for _, c := range counts {
		if c < least {
			least = c
		}
	}
	for _, q := range []float64{0.99, 0.95, 0.90} {
		if float64(least)*(1-q) >= 10 {
			return q
		}
	}
	return 0.90
}

func isQuery(s sample) bool { return s.class != ingest }

func isClass(c class) func(sample) bool {
	return func(s sample) bool { return s.class == c }
}
