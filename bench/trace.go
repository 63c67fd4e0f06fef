package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary, recorded from outside
// the program: around a call into a layer's public functions.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Req     int64  `json:"req"` // spans of one replayed request share it
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	nextID atomic.Int64
	// cur is the span every server.handler span of the moment hangs under,
	// req the replayed request's id. Requests are replayed one at a time.
	cur, req atomic.Int64
	// body and bytes are the last captured API response.
	body  []byte
	bytes int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) record(id, parent int64, name string, start time.Time, dur time.Duration) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req.Load(), Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), DurNs: dur.Nanoseconds()})
	t.mu.Unlock()
}

// timed runs f as a span under parent and returns the span's id and
// duration.
func (t *tracer) timed(name string, parent int64, f func() error) (int64, time.Duration, error) {
	id := t.nextID.Add(1)
	start := time.Now()
	err := f()
	dur := time.Since(start)
	t.record(id, parent, name, start, dur)
	return id, dur, err
}

// childrenOf sums the durations of parent's direct children named name,
// and reports the longest one.
func (t *tracer) childrenOf(parent int64, name string) (sum, longest time.Duration, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0 && t.spans[i].Req == t.req.Load(); i-- {
		if s := t.spans[i]; s.Parent == parent && s.Name == name {
			d := time.Duration(s.DurNs)
			sum += d
			if d > longest {
				longest = d
			}
			n++
		}
	}
	return sum, longest, n
}

// captureWriter tees an API response body.
type captureWriter struct {
	http.ResponseWriter
	buf []byte
}

func (w *captureWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return w.ResponseWriter.Write(p)
}

// wrap is the harness middleware around every in-process handler: one
// server.handler span per API request, parented to the current call.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/api/") {
			h.ServeHTTP(w, r)
			return
		}
		cw := &captureWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		dur := time.Since(start)
		t.record(t.nextID.Add(1), t.cur.Load(), "server.handler", start, dur)
		t.mu.Lock()
		t.body, t.bytes = cw.buf, len(cw.buf)
		t.mu.Unlock()
	})
}

func (t *tracer) lastBody() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.body
}

// writeTo dumps the spans as JSON lines.
func (t *tracer) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// series collects per-request values of one per-layer metric; the
// reported value is their median.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// traceIngestBatches caps the traced ingest class: a batch costs ~40 ms
// three times over (client, engine, layer probes), and 48 batches already
// push the stream past the 32768-row reservoir so sampling is real.
const traceIngestBatches = 48

// runTraced is the separate traced run that yields the per-layer metrics.
// The stack is hosted inside the harness; requests are replayed one at a
// time, each through the client, then as the equivalent direct call on
// every lower layer with the same arguments and cache state.
func runTraced(ctx context.Context, e *env, out string) (*result, error) {
	tr := newTracer()
	e.wrap = tr.wrap
	st, err := setups[e.workload](ctx, e)
	if st != nil {
		defer st.abort()
	}
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if _, err := st.prepare(ctx, e, 0); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	node := st.nodes[0]
	sys := node.sys
	cold := e.workload == "lib-cold"
	frontC, err := newClient(node.url, 0)
	if err != nil {
		return nil, err
	}
	viaClient, direct := clientTarget{frontC}, libTarget{sys}
	router := st.router
	if router == nil {
		// A one-shard router over the same node, so the cluster layer is
		// measured on every workload.
		if router, err = newRouter([]string{node.url}, true); err != nil {
			return nil, err
		}
		defer router.close()
	}
	probeDir, err := e.newDir("probe")
	if err != nil {
		return nil, err
	}
	lower, err := newLowerLayers(sys, node.dir, probeDir)
	if err != nil {
		return nil, err
	}

	defer lower.close()
	colsOf := map[string][]string{}
	for _, ts := range st.plan.byClass {
		for _, t := range ts {
			colsOf[tableKey(t.model, t.interm)] = t.cols
		}
	}

	res := &result{}
	vals := make(series)
	strategies := make(map[string]int)
	var relErr = map[string][]float64{}
	rng := rand.New(rand.NewSource(e.seed + 2))
	before := systemMetrics(sys)
	routerBefore := registryMetrics(router.reg)
	var routerQueries, shardCalls int
	var clientLat []float64
	o := &oracle{tables: st.tables}
	// write-mixed's growing stream stays at its base here: the traced
	// ingest goes to a stream of its own.
	acked := int64(-1)
	if st.stream != nil && st.stream.tab.growing {
		acked = int64(e.sc.growBase())
	}

	// The traced stream: the workload's own where it ingests one, a
	// scratch stream elsewhere.
	ing := e.streamOf("trace", traceBatches(e)*2*e.sc.batchRows)
	ingested := 0
	nextBatch := func() *request {
		r := ing.batch(ingested, e.sc.batchRows)
		ingested++
		return r
	}

	// replayClass replays one class in four passes — client, engine,
	// lower layers, router — so that every call finds the cache in the
	// workload's own steady state: warm where the workload is warm, and on
	// lib-cold holding whatever the previous, unrelated request left (a
	// request replayed straight after itself would always hit the pool).
	// Spans of one request still share its id and parent chain.
	replayClass := func(c class, viaFront, viaEngine []request) error {
		n := len(viaFront)
		base := tr.req.Load()
		callID := make([]int64, n)
		handler := make([]time.Duration, n)
		ok := make([]bool, n)
		for i := range viaFront {
			r := &viaFront[i]
			tr.req.Store(base + int64(i) + 1)
			res.attempted++
			callID[i] = tr.nextID.Add(1)
			tr.cur.Store(callID[i])
			start := time.Now()
			rep, err := viaClient.Do(ctx, r)
			callDur := time.Since(start)
			tr.record(callID[i], 0, "client.call", start, callDur)
			if err != nil {
				res.failed++
				res.notes = append(res.notes, fmt.Sprintf("failed %s: %v", c, err))
				continue
			}
			ok[i] = true
			handler[i], _, _ = tr.childrenOf(callID[i], "server.handler")
			body := tr.lastBody()
			clientLat = append(clientLat, ms(callDur))
			vals.add("client.wire_self_us", us(callDur-handler[i]))
			vals.add("client.resp_bytes_per_op", float64(len(body)))
			if r.Verify && c != ingest {
				viaClient.Decode(r, rep)
				if err := o.check(r, sample{rep: rep, class: c, ackedBefore: acked, ackedAfter: acked}); err != nil {
					res.failed++
					res.notes = append(res.notes, fmt.Sprintf("wrong answer: %s %s/%s: %v", c, r.Model, r.Interm, err))
				}
			}
			_, encDur, err := tr.timed("client.encode", callID[i], func() error { _, err := wireEncode(r); return err })
			if err != nil {
				return err
			}
			_, decDur, err := tr.timed("client.decode", callID[i], func() error { return wireDecode(r, body) })
			if err != nil {
				return err
			}
			vals.add("client.encode_us", us(encDur))
			vals.add("client.decode_us", us(decDur))
		}

		// engine.<class>: the same request as a direct *Ctx call.
		engID := make([]int64, n)
		ereps := make([]*reply, n)
		for i := range viaEngine {
			if !ok[i] {
				continue
			}
			r := &viaEngine[i]
			tr.req.Store(base + int64(i) + 1)
			var engDur time.Duration
			var err error
			engID[i], engDur, err = tr.timed("engine."+c.String(), callID[i], func() error {
				var err error
				ereps[i], err = direct.Do(ctx, r)
				return err
			})
			if err != nil {
				return fmt.Errorf("engine %s: %w", c, err)
			}
			vals.add("engine."+c.String()+"_us", us(engDur))
			vals.add("server.handler_self_us", us(handler[i]-engDur))
			if ereps[i].Strategy != "" && (c == fetch || c == coldist) && r.Strategy == "" {
				strategies[ereps[i].Strategy]++
			}
			noteRelErr(relErr, ereps[i])
		}

		// Below the engine.
		for i := range viaEngine {
			if !ok[i] {
				continue
			}
			r := &viaEngine[i]
			tr.req.Store(base + int64(i) + 1)
			if err := lower.descend(ctx, tr, engID[i], r, ereps[i], colsOf[tableKey(r.Model, r.Interm)], vals); err != nil {
				return fmt.Errorf("descend %s: %w", c, err)
			}
		}

		// cluster: the same request through the router. Off cluster-scatter
		// the router fronts a single shard, and a TOPK or FILTER over the
		// 40-block stream would exceed the router's own per-shard in-flight
		// bound (32) and come back degraded; only the classes that touch a
		// few blocks go through it there.
		if c == ingest || c == coldist || (st.router == nil && c != pointq && c != fetch) {
			return nil
		}
		for i := range viaFront {
			if !ok[i] {
				continue
			}
			tr.req.Store(base + int64(i) + 1)
			routerID := tr.nextID.Add(1)
			tr.cur.Store(routerID)
			router.drainCalls()
			start := time.Now()
			_, err := router.target.Do(ctx, &viaFront[i])
			routerDur := time.Since(start)
			tr.record(routerID, 0, "cluster.router", start, routerDur)
			if err != nil {
				res.failed++
				res.notes = append(res.notes, fmt.Sprintf("failed router %s: %v", c, err))
				continue
			}
			var slowest time.Duration
			calls := router.drainCalls()
			for _, sc := range calls {
				tr.record(tr.nextID.Add(1), routerID, "cluster.shard_call", sc.start, sc.dur)
				if sc.dur > slowest {
					slowest = sc.dur
				}
			}
			routerQueries++
			shardCalls += len(calls)
			vals.add("cluster.router_self_us", us(routerDur-slowest))
		}
		return nil
	}

	if cold {
		if err := dropCache(sys); err != nil {
			return nil, err
		}
	}
	for _, c := range queryClasses {
		reqs := st.plan.genClass(rng, c, e.sc.traceReqs)
		if err := st.dumpTables(ctx, needed(reqs)); err != nil {
			return nil, err
		}
		st.fillBounds(reqs)
		if err := replayClass(c, reqs, reqs); err != nil {
			return nil, err
		}
	}
	// An ingest batch cannot be sent twice: the direct calls take the
	// batches that follow the client's on the same stream.
	var front, engine []request
	for i := 0; i < traceBatches(e); i++ {
		front = append(front, *nextBatch())
	}
	for i := 0; i < traceBatches(e); i++ {
		engine = append(engine, *nextBatch())
	}
	if err := replayClass(ingest, front, engine); err != nil {
		return nil, err
	}

	// Forced strategies: every strategy's estimate gets compared with its
	// actual, whatever the cost model preferred above; and the sampled
	// COL_DIST over the traced stream.
	forced := st.plan.genClass(rng, fetch, maxInt(e.sc.traceReqs/8, 4))
	var rerunMs []float64
	for i := range forced {
		for _, strat := range []string{"READ", "RERUN"} {
			r := forced[i]
			r.Strategy, r.Verify = strat, false
			t0 := time.Now()
			rep, err := direct.Do(ctx, &r)
			if err != nil {
				return nil, fmt.Errorf("forced %s fetch: %w", strat, err)
			}
			if strat == "RERUN" {
				rerunMs = append(rerunMs, ms(time.Since(t0)))
			}
			noteRelErr(relErr, rep)
			res.attempted++
		}
	}
	for j := 0; j < maxInt(e.sc.traceReqs/8, 4); j++ {
		r := &request{Class: coldist, Model: streamModel, Interm: "trace", Col: ing.cols[j%len(ing.cols)]}
		rep, err := direct.Do(ctx, r)
		if err != nil {
			return nil, fmt.Errorf("sampled coldist: %w", err)
		}
		noteRelErr(relErr, rep)
		res.attempted++
	}
	estC, err := newClient(node.url, 0)
	if err != nil {
		return nil, err
	}
	for i := range forced {
		d, err := estimateProbe(ctx, estC, forced[i].Model, forced[i].Interm, forced[i].NEx)
		if err != nil {
			return nil, err
		}
		vals.add("cost.estimate_us", us(d))
	}

	after := systemMetrics(sys)
	routerAfter := registryMetrics(router.reg)
	delta := func(name string) float64 { return after[name] - before[name] }

	// Everything that is not a per-request series becomes a series of one,
	// so that one table, in BENCHMARK.json's order, reports them all.
	if err := runProbes(e, st, node.dir, probeDir, lower.blockRows, vals); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	ratio := func(num, den float64) float64 { return num / math.Max(den, 1) }
	vals["client.resp_bytes_per_op"] = []float64{mean(vals["client.resp_bytes_per_op"])}
	vals.add("server.rejected_total", delta("mistique_http_rejected_total"))
	vals.add("server.errors_total", delta("mistique_http_errors_total"))
	total := float64(strategies["READ"] + strategies["RERUN"] + strategies["SAMPLE"])
	for _, s := range []string{"READ", "RERUN", "SAMPLE"} {
		vals.add("engine."+strings.ToLower(s)+"_share", ratio(float64(strategies[s]), total))
		vals["cost."+strings.ToLower(s)+"_rel_err_p50"] = relErr[s]
	}
	hits := delta("mistique_index_hits_total")
	vals.add("nindex.hit_ratio", ratio(hits, hits+delta("mistique_index_builds_total")+delta("mistique_index_rebuilds_total")))
	fallbacks := delta("mistique_sample_fallbacks_total")
	vals.add("sample.fallback_ratio", ratio(fallbacks, fallbacks+delta("mistique_sample_queries_total")))
	vals.add("colstore.pool_hit_ratio", 1-ratio(delta("mistique_store_disk_reads_total"), delta("mistique_store_chunk_read_seconds_count")))
	vals.add("colstore.evictions", delta("mistique_store_evictions_total"))
	// Not a per-layer metric: it is exactly 0 wherever the workload is warm.
	res.addDiag("colstore.pagein_ms", "ms", scalar(1e3*ratio(delta("mistique_store_pagein_seconds_sum"), delta("mistique_store_pagein_seconds_count"))))
	vals["rerun.fetch_ms"] = rerunMs
	vals.add("cluster.blocks_per_query", ratio(float64(shardCalls), float64(routerQueries)))
	for _, name := range []string{"hedges_fired", "failovers", "retries"} {
		series := "mistique_cluster_" + name + "_total"
		vals.add("cluster."+name, routerAfter[series]-routerBefore[series])
	}
	vals["trace.client_call_p50_ms"] = clientLat
	for _, m := range perLayer {
		v := 0.0 // a layer the workload never entered
		if len(vals[m.name]) > 0 {
			v, _ = medianIQR(vals[m.name])
		}
		res.add(m.name, m.unit, stat{value: v, n: len(vals[m.name]), ok: true})
	}

	if out != "" {
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return nil, err
		}
		if err := tr.writeTo(out); err != nil {
			return nil, err
		}
	}
	res.addDiag("spans", "count", scalar(float64(len(tr.spans))))
	return res, nil
}

// perLayer names every per-layer metric and its unit, in the order of
// BENCHMARK.json. Each is the median of the values filed under its name.
var perLayer = []struct{ name, unit string }{
	{"client.encode_us", "us"}, {"client.decode_us", "us"}, {"client.wire_self_us", "us"},
	{"client.resp_bytes_per_op", "bytes"},
	{"server.handler_self_us", "us"}, {"server.rejected_total", "count"}, {"server.errors_total", "count"},
	{"engine.pointq_us", "us"}, {"engine.topk_us", "us"}, {"engine.filter_us", "us"},
	{"engine.coldist_us", "us"}, {"engine.fetch_us", "us"}, {"engine.ingest_us", "us"},
	{"engine.read_share", "ratio"}, {"engine.rerun_share", "ratio"}, {"engine.sample_share", "ratio"},
	{"cost.estimate_us", "us"}, {"cost.read_rel_err_p50", "ratio"}, {"cost.rerun_rel_err_p50", "ratio"},
	{"cost.sample_rel_err_p50", "ratio"},
	{"nindex.probe_us", "us"}, {"nindex.build_ms", "ms"}, {"nindex.hit_ratio", "ratio"},
	{"nindex.rows_decoded_per_result", "ratio"},
	{"sample.query_us", "us"}, {"sample.fallback_ratio", "ratio"}, {"sample.add_ns_per_row", "ns"},
	{"colstore.get_us", "us"}, {"colstore.cold_get_ms", "ms"}, {"colstore.warm_get_us", "us"},
	{"colstore.pool_hit_ratio", "ratio"}, {"colstore.evictions", "count"},
	{"colstore.put_us_per_chunk", "us"}, {"colstore.flush_ms_per_partition", "ms"},
	{"colstore.write_bytes_per_raw_byte", "ratio"}, {"colstore.fsyncs", "count"}, {"colstore.dedup_ratio", "ratio"},
	{"codec.decode_us", "us"},
	{"codec.gzip.decode_mb_s", "MB/s"}, {"codec.gzip.encode_mb_s", "MB/s"}, {"codec.gzip.ratio", "ratio"},
	{"codec.actz.decode_mb_s", "MB/s"}, {"codec.actz.encode_mb_s", "MB/s"}, {"codec.actz.ratio", "ratio"},
	{"codec.store.decode_mb_s", "MB/s"}, {"codec.store.encode_mb_s", "MB/s"}, {"codec.store.ratio", "ratio"},
	{"quant.decode_us", "us"}, {"quant.lp_decode_mb_s", "MB/s"}, {"quant.lp_encode_mb_s", "MB/s"},
	{"quant.kbit_decode_mb_s", "MB/s"}, {"quant.fit_ms", "ms"},
	{"wal.append_us", "us"}, {"wal.fsyncs_per_batch", "ratio"}, {"wal.bytes_per_row", "bytes"},
	{"cas.put_mb_s", "MB/s"}, {"cas.dedup_ratio", "ratio"},
	{"rerun.fetch_ms", "ms"},
	{"cluster.router_self_us", "us"}, {"cluster.blocks_per_query", "ratio"}, {"cluster.hedges_fired", "count"},
	{"cluster.failovers", "count"}, {"cluster.retries", "count"},
	{"trace.client_call_p50_ms", "ms"},
}

func traceBatches(e *env) int {
	if e.sc.traceReqs < traceIngestBatches {
		return e.sc.traceReqs
	}
	return traceIngestBatches
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// noteRelErr records |estimate - actual| / actual for the strategy that
// answered: the estimate-vs-actual output ROADMAP item 1 asks for.
func noteRelErr(relErr map[string][]float64, rep *reply) {
	if rep == nil || rep.FetchSecs <= 0 {
		return
	}
	var est float64
	switch rep.Strategy {
	case "READ":
		est = rep.EstRead
	case "RERUN":
		est = rep.EstRerun
	case "SAMPLE":
		est = rep.EstSample
	default:
		return
	}
	relErr[rep.Strategy] = append(relErr[rep.Strategy], math.Abs(est-rep.FetchSecs)/rep.FetchSecs)
}
