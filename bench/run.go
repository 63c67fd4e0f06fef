package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// metric is one reported number.
type metric struct {
	name, unit string
	value, iqr float64
	n          int
}

// result is what one run reports.
type result struct {
	metrics   []metric // the gated (or, traced, the per-layer) metrics
	diag      []metric // printed beside them, never gated
	attempted int
	failed    int
	notes     []string
	missing   []string // metrics no sample was taken for
}

func (r *result) add(name, unit string, s stat) {
	if !s.ok {
		r.missing = append(r.missing, name)
	}
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: s.value, iqr: s.iqr, n: s.n})
}

func (r *result) addDiag(name, unit string, s stat) {
	r.diag = append(r.diag, metric{name: name, unit: unit, value: s.value, iqr: s.iqr, n: s.n})
}

func scalar(v float64) stat { return stat{value: v, n: 1, ok: true} }

func ofValues(vals []float64) stat {
	med, iqr := medianIQR(vals)
	return stat{value: med, iqr: iqr, n: len(vals), ok: true}
}

// window is one measured phase's samples.
type window struct {
	dur     time.Duration
	samples []sample
	reqOf   func(sample) *request
	tgtOf   func(sample) target
}

// runWorkload is the untraced run: set-up (several times, for a steady
// setup_s), the measured window, and then — off the timed path — the
// oracle check, the crash check of write-mixed and a graceful shutdown.
func runWorkload(ctx context.Context, e *env) (*result, error) {
	setup := setups[e.workload]
	closedDur, openDur := e.seconds/2, e.seconds-e.seconds/2
	switch e.workload {
	case "lib-cold":
		closedDur, openDur = e.seconds, 0
	case "write-mixed":
		closedDur, openDur = 0, e.seconds
	}

	var st *stack
	var sch *schedules
	var setupSecs, logRates []float64
	defer func() {
		if st != nil {
			st.abort()
		}
	}()
	for rep := 0; rep < e.sc.setupReps; rep++ {
		if st != nil {
			st.abort()
		}
		var err error
		t0 := time.Now()
		if st, err = setup(ctx, e); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if sch, err = st.prepare(ctx, e, openDur); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
		logRates = append(logRates, float64(st.logBytes)/mb/st.logSecs)
	}

	res := &result{}
	var wins []window
	var ingested window
	rn := &runner{}
	each := func(sample) float64 { return 1 }
	openWindow := func() {
		samples, backlog := rn.openLoop(ctx, st.readers, sch.open, openDur)
		wins = append(wins, window{dur: openDur, samples: samples,
			reqOf: func(s sample) *request { return &sch.open[s.idx] },
			tgtOf: func(s sample) target { return st.readers[s.worker] }})
		res.addDiag("backlog_end", "count", scalar(float64(backlog)))
	}

	switch e.workload {
	case "write-mixed":
		base := e.sc.growBase()
		rn.acked = ackCounter(base)
		var batches []request
		for i := base / e.sc.batchRows; (i+1)*e.sc.batchRows <= len(st.stream.rows); i++ {
			batches = append(batches, *st.stream.batch(i, e.sc.batchRows))
		}
		var wg sync.WaitGroup
		wg.Add(1)
		t0 := time.Now()
		go func() {
			defer wg.Done()
			for i := 0; i < len(batches) && time.Since(t0) < openDur; i++ {
				s := rn.exec(ctx, []target{st.writer}, 0, &batches[i], i, t0, 0)
				s.due = s.start
				ingested.samples = append(ingested.samples, s)
			}
		}()
		openWindow()
		wg.Wait()
		ingested.dur = openDur
		res.add("ops_per_s", "1/s", throughput(ingested.samples, openDur, isClass(ingest), each))
	default:
		samples := rn.closedLoop(ctx, st.readers, sch.closed, closedDur)
		wins = append(wins, window{dur: closedDur, samples: samples,
			reqOf: func(s sample) *request { return &sch.closed[s.worker][s.idx] },
			tgtOf: func(s sample) target { return st.readers[s.worker] }})
		res.add("ops_per_s", "1/s", throughput(samples, closedDur, isQuery, each))
		if openDur > 0 {
			openWindow()
		}
	}

	// Latencies come from the last window: the open loop where there is
	// one, the closed loop itself on lib-cold.
	lat := wins[len(wins)-1]
	for _, c := range queryClasses {
		res.add(c.String()+"_p50_ms", "ms", latencyQuantile(lat.samples, lat.dur, 0.5, isClass(c)))
		res.addDiag(c.String()+"_p99_ms", "ms", latencyQuantile(lat.samples, lat.dur, 0.99, isClass(c)))
	}
	tailQ := tailQuantile(lat.samples, lat.dur, isQuery)
	res.addDiag(fmt.Sprintf("tail_p%.0f_ms", tailQ*100), "ms", latencyQuantile(lat.samples, lat.dur, tailQ, isQuery))
	if openDur > 0 {
		lag := make([]float64, 0, len(lat.samples))
		for _, s := range lat.samples {
			lag = append(lag, float64(s.start-s.due)/float64(time.Millisecond))
		}
		sort.Float64s(lag)
		res.addDiag("sched_lag_p50_ms", "ms", scalar(quantile(lag, 0.5)))
		res.addDiag("sched_lag_p99_ms", "ms", scalar(quantile(lag, 0.99)))
	}
	if len(ingested.samples) > 0 {
		rows := float64(e.sc.batchRows)
		res.addDiag("ingest_rows_per_s", "rows/s", throughput(ingested.samples, ingested.dur, isClass(ingest), func(sample) float64 { return rows }))
		res.addDiag("ingest_ack_p50_ms", "ms", latencyQuantile(ingested.samples, ingested.dur, 0.5, isClass(ingest)))
		res.addDiag("ingest_ack_p99_ms", "ms", latencyQuantile(ingested.samples, ingested.dur, 0.99, isClass(ingest)))
	}

	// Peak memory of the processes holding the stores, before they stop.
	var rss float64
	for _, pid := range st.rssPIDs {
		v, err := rssPeakMB(pid)
		if err != nil {
			return nil, err
		}
		rss += v
	}
	res.add("rss_peak_mb", "MB", scalar(rss))

	// Off the timed path: count failures and check the kept answers.
	strategies := make(map[string]int)
	for _, w := range append(wins, ingested) {
		for _, s := range w.samples {
			res.attempted++
			if s.err != nil {
				res.failed++
				res.notes = append(res.notes, fmt.Sprintf("failed %s: %v", s.class, s.err))
			}
		}
	}
	for wi, w := range wins {
		checked, wrong := st.verify(w.reqOf, w.tgtOf, w.samples)
		res.failed += len(wrong)
		for _, err := range wrong {
			res.notes = append(res.notes, "wrong answer: "+err.Error())
		}
		res.addDiag(fmt.Sprintf("verified_window%d", wi+1), "count", scalar(float64(checked)))
		for _, s := range w.samples {
			if s.rep != nil && s.rep.Strategy != "" {
				strategies[s.class.String()+"_"+s.rep.Strategy]++
			}
		}
	}
	for name, n := range strategies {
		res.addDiag("verified_strategy_"+name, "count", scalar(float64(n)))
	}

	if e.workload == "write-mixed" {
		lost, checks, err := crashCheck(ctx, e, st, rn.acked.Load())
		if err != nil {
			return nil, fmt.Errorf("crash check: %w", err)
		}
		res.attempted += checks
		res.failed += lost
		if lost > 0 {
			res.notes = append(res.notes, fmt.Sprintf("crash check: %d of %d checks failed", lost, checks))
		}
	}

	// The servers' own view of refused and failed requests.
	var rejected, errored float64
	for _, n := range st.nodes {
		m, err := scrapeMetrics(n.url)
		if err != nil {
			return nil, err
		}
		rejected += m["mistique_http_rejected_total"]
		errored += m["mistique_http_errors_total"]
	}
	if len(st.nodes) > 0 {
		res.addDiag("server_rejected_total", "count", scalar(rejected))
		res.addDiag("server_errors_total", "count", scalar(errored))
	}

	// Graceful stop, then the bytes on disk.
	stored := st.storedBytes
	if st.router != nil {
		st.router.close()
		st.router = nil
	}
	for _, n := range st.nodes {
		if err := n.shutdown(); err != nil {
			return nil, fmt.Errorf("shutdown: %w", err)
		}
		if st.storedBytes == 0 {
			b, err := dirBytes(n.dir)
			if err != nil {
				return nil, err
			}
			stored += b
		}
	}
	st.nodes = nil
	if st.lib != nil {
		if err := st.lib.Close(); err != nil {
			return nil, fmt.Errorf("close: %w", err)
		}
		st.lib = nil
	}
	res.add("stored_bytes_per_raw_byte", "ratio", scalar(float64(stored)/float64(st.rawBytes)))
	res.add("log_mb_per_s", "MB/s", ofValues(logRates))
	res.add("setup_s", "s", ofValues(setupSecs))
	res.addDiag("failed_share", "ratio", scalar(float64(res.failed)/float64(maxInt(res.attempted, 1))))
	if len(res.missing) > 0 {
		return nil, fmt.Errorf("no samples for %v", res.missing)
	}
	return res, nil
}

// crashCheck kills the write-mixed node with SIGKILL, restarts it on the
// same directory and checks that every acknowledged row is readable: the
// sampler and the catalog both count `acked` rows, and the last
// acknowledged batch reads back bit for bit. kill -9 leaves the OS page
// cache intact, so this is process-crash durability only.
func crashCheck(ctx context.Context, e *env, st *stack, acked int64) (lost, checks int, err error) {
	old := st.nodes[0]
	old.abort()
	n, err := e.startNode(old.dir, e.sc.pipelines, "")
	if err != nil {
		return 0, 0, err
	}
	st.nodes[0] = n
	c, err := newClient(n.url, 3)
	if err != nil {
		return 0, 0, err
	}
	t := clientTarget{c}
	tab := st.stream.tab

	// Row count, as the sampler saw it.
	checks++
	dreq := &request{Class: coldist, Model: streamModel, Interm: streamInterm, Col: st.stream.cols[0]}
	if rep, err := t.Do(ctx, dreq); err != nil {
		lost++
	} else if t.Decode(dreq, rep); rep.Dist == nil || rep.Dist.Rows != acked {
		lost++
	}
	// The last acknowledged batch, read exactly.
	checks++
	from := int(acked) - e.sc.batchRows
	preq := &request{Class: pointq, Model: streamModel, Interm: streamInterm, From: from, To: int(acked)}
	if rep, err := t.Do(ctx, preq); err != nil {
		lost++
	} else {
		t.Decode(preq, rep)
		if tab.checkMatrix(rep.Matrix, nil, from, int(acked)) != nil {
			lost++
		}
	}
	return lost, checks, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
