package cluster

// The fault matrix: a 3-node in-process cluster (real Systems behind real
// HTTP servers) with a FaultBackend between the router and every shard.
// Each test arms one network failure mode — slow shard, killed shard,
// partition of an unreplicated owner, flapping membership — and asserts
// the router's contract: bit-exact parity with a single node whenever a
// replica can serve, a typed degraded manifest when none can, and probe
// traffic that backs off instead of herding.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mistique"
	"mistique/client"
	"mistique/internal/colstore"
	"mistique/internal/obs"
	"mistique/internal/pipeline"
	"mistique/internal/server"
	"mistique/internal/tensor"
	"mistique/internal/zillow"
)

const demoSpec = `
name: demo
stages:
  - name: props
    op: read_table
    params: {table: properties}
  - name: sales
    op: read_table
    params: {table: train}
  - name: joined
    op: join
    inputs: [sales, props]
    params: {on: parcelid}
  - name: filled
    op: fillna
    inputs: [joined]
  - name: splits
    op: split
    inputs: [filled]
    params: {frac: 0.8, seed: 1}
    outputs: [train_split, eval_split]
  - name: model
    op: train_xgb
    inputs: [train_split]
    params: {target: logerror, rounds: 4, max_depth: 3}
`

// node is one shard: a full System (the demo pipeline is deterministic,
// so every node holds bit-identical data — replication by construction)
// behind a real HTTP server.
type node struct {
	sys *mistique.System
	fb  *FaultBackend
}

func newNode(t testing.TB, name string) *node {
	t.Helper()
	sys, err := mistique.Open(t.TempDir(), mistique.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	ps, err := pipeline.SpecFromYAML(demoSpec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pipeline.New(ps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.LogPipeline(p, zillow.Env(200, 600, 1)); err != nil {
		t.Fatal(err)
	}
	srv := server.New(sys, server.Config{ShardName: name})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL, client.WithMaxRetries(0), client.WithTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	return &node{sys: sys, fb: NewFaultBackend(NewHTTPBackend(c))}
}

// newTestCluster stands up n nodes and a router over them. The returned
// map indexes each node's fault plan by shard id.
func newTestCluster(t testing.TB, n int, cfg Config) (*Router, map[ShardID]*node) {
	t.Helper()
	nodes := make(map[ShardID]*node, n)
	shards := make([]Shard, 0, n)
	for i := 0; i < n; i++ {
		id := ShardID(fmt.Sprintf("s%d", i))
		nd := newNode(t, string(id))
		nodes[id] = nd
		shards = append(shards, Shard{ID: id, Backend: nd.fb})
	}
	r, err := New(shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r, nodes
}

// testConfig pins the knobs that matter for determinism: small blocks so
// queries actually scatter, probes off unless the test is about them.
func testConfig() Config {
	return Config{
		Replication:   2,
		BlockRows:     64,
		DisableProbes: true,
		RetryBackoff:  5 * time.Millisecond,
		ShardTimeout:  10 * time.Second,
		CatalogTTL:    time.Minute,
		Obs:           obs.New(),
	}
}

func f32eq(a, b float32) bool {
	if math.IsNaN(float64(a)) && math.IsNaN(float64(b)) {
		return true
	}
	return math.Float32bits(a) == math.Float32bits(b)
}

// anyNode returns one node's System — every node holds identical data,
// so any of them is the single-node reference.
func anyNode(nodes map[ShardID]*node) *mistique.System {
	for _, nd := range nodes {
		return nd.sys
	}
	return nil
}

// primaryOf returns the shard a block's replica chain starts with — the
// shard to break when a test needs the failure on the serving path.
func primaryOf(t *testing.T, r *Router, block int) ShardID {
	t.Helper()
	owners := r.ring.Owners(BlockRef{Model: "demo", Intermediate: "joined", Block: block})
	if len(owners) == 0 {
		t.Fatal("block has no owners")
	}
	return owners[0]
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// --- ring unit tests ---

func TestRingDeterministicPlacement(t *testing.T) {
	ids := []ShardID{"a", "b", "c"}
	r1 := NewRing(ids, 64, 2)
	r2 := NewRing(ids, 64, 2)
	counts := map[ShardID]int{}
	for blk := 0; blk < 200; blk++ {
		ref := BlockRef{Model: "m", Intermediate: "i", Block: blk}
		o1, o2 := r1.Owners(ref), r2.Owners(ref)
		if len(o1) != 2 {
			t.Fatalf("owners(%v) = %v, want 2 replicas", ref, o1)
		}
		if o1[0] == o1[1] {
			t.Fatalf("replica chain repeats a shard: %v", o1)
		}
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("placement not deterministic: %v vs %v", o1, o2)
			}
		}
		counts[o1[0]]++
	}
	// Virtual nodes should spread primaries over every shard.
	for _, id := range ids {
		if counts[id] == 0 {
			t.Fatalf("shard %s owns no primaries: %v", id, counts)
		}
	}
}

func TestRingReplicaClamp(t *testing.T) {
	r := NewRing([]ShardID{"a", "b"}, 8, 5)
	if r.replicas != 2 {
		t.Fatalf("replicas = %d, want clamp to 2", r.replicas)
	}
	if got := r.Owners(BlockRef{Model: "m", Intermediate: "i"}); len(got) != 2 {
		t.Fatalf("owners = %v", got)
	}
}

// --- fault matrix ---

// TestScatterGatherParity: a healthy cluster answers every query shape
// bit-identically to a single node.
func TestScatterGatherParity(t *testing.T) {
	r, nodes := newTestCluster(t, 3, testConfig())
	sys := anyNode(nodes)
	ctx := context.Background()

	// FilterRows.
	fr, err := r.FilterRows(ctx, "demo", "joined", "logerror", "gt", 0)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Degraded {
		t.Fatal("healthy cluster reported degraded")
	}
	direct, err := sys.FilterRows("demo", "joined", "logerror", colstore.Gt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Rows) != len(direct) {
		t.Fatalf("filter rows %d vs %d", len(fr.Rows), len(direct))
	}
	for i := range fr.Rows {
		if fr.Rows[i] != direct[i] {
			t.Fatalf("filter mismatch at %d: %d vs %d", i, fr.Rows[i], direct[i])
		}
	}

	// TopK.
	tk, err := r.TopK(ctx, "demo", "joined", "logerror", 17)
	if err != nil {
		t.Fatal(err)
	}
	dtk, err := sys.TopK("demo", "joined", "logerror", 17)
	if err != nil {
		t.Fatal(err)
	}
	assertTopKEqual(t, tk.Entries, dtk)

	// GetRows.
	cols := []string{"logerror", "finishedsquarefeet"}
	rr, err := r.GetRows(ctx, "demo", "joined", cols, 10, 200)
	if err != nil {
		t.Fatal(err)
	}
	drm, err := sys.GetRows("demo", "joined", cols, 10, 200)
	if err != nil {
		t.Fatal(err)
	}
	assertRowsEqual(t, rr, drm)

	// GetRows keeps the engine's range rules: to == 0 is the last row.
	for _, w := range [][2]int{{0, 0}, {5, 0}, {130, 1 << 20}} {
		rr, err := r.GetRows(ctx, "demo", "joined", cols, w[0], w[1])
		if err != nil {
			t.Fatalf("rows %v: %v", w, err)
		}
		drm, err := sys.GetRows("demo", "joined", cols, w[0], w[1])
		if err != nil {
			t.Fatal(err)
		}
		assertRowsEqual(t, rr, drm)
	}
	// Malformed queries fail as on one node, with the typed sentinel.
	if _, err := r.GetRows(ctx, "demo", "joined", cols, 1<<20, 0); !errors.Is(err, mistique.ErrBadQuery) {
		t.Fatalf("rows past the end: err = %v, want ErrBadQuery", err)
	}
	if _, err := r.GetRows(ctx, "demo", "joined", cols, 9, 4); !errors.Is(err, mistique.ErrBadQuery) {
		t.Fatalf("inverted rows: err = %v, want ErrBadQuery", err)
	}
	if _, err := r.TopK(ctx, "demo", "joined", "logerror", -1); !errors.Is(err, mistique.ErrBadQuery) {
		t.Fatalf("negative k: err = %v, want ErrBadQuery", err)
	}

	// GetIntermediate caps at the row count.
	gi, err := r.GetIntermediate(ctx, "demo", "joined", cols, 0)
	if err != nil {
		t.Fatal(err)
	}
	info, ok := sys.Metadata().IntermSnapshot("demo", "joined")
	if !ok {
		t.Fatal("joined not in catalog")
	}
	if len(gi.Data) != info.Rows {
		t.Fatalf("full read %d rows, want %d", len(gi.Data), info.Rows)
	}
}

// TestHedgingSlowShard: the primary of block 0 answers slowly; a pinned
// hedge delay races the replica, the fast answer wins, and the result is
// still bit-exact.
func TestHedgingSlowShard(t *testing.T) {
	cfg := testConfig()
	cfg.MinHedgeDelay = 5 * time.Millisecond
	cfg.MaxHedgeDelay = 5 * time.Millisecond
	r, nodes := newTestCluster(t, 3, cfg)
	sys := anyNode(nodes)
	// Warm the catalog cache first: catalog lookups fail over sequentially
	// (membership order + ShardTimeout), they do not hedge — only the
	// scatter data path does, and that is what this test times.
	if _, err := r.intermInfo(context.Background(), "demo", "joined"); err != nil {
		t.Fatal(err)
	}
	slow := primaryOf(t, r, 0)
	nodes[slow].fb.SetLatency(1500 * time.Millisecond)

	start := time.Now()
	tk, err := r.TopK(context.Background(), "demo", "joined", "logerror", 10)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	dtk, err := sys.TopK("demo", "joined", "logerror", 10)
	if err != nil {
		t.Fatal(err)
	}
	assertTopKEqual(t, tk.Entries, dtk)
	if tk.Degraded {
		t.Fatal("hedged query reported degraded")
	}
	if elapsed >= 1500*time.Millisecond {
		t.Fatalf("query waited out the slow shard (%v): hedging did not engage", elapsed)
	}
	if r.met.hedgesFired.Value() == 0 {
		t.Fatal("no hedges fired against a slow primary")
	}
	if r.met.hedgesWon.Value() == 0 {
		t.Fatal("no hedge won against a 1.5s-slow primary")
	}
}

// TestFailoverReplicated: with the primary of block 0 partitioned and
// replication 2, every query fails over and stays bit-exact — the caller
// never sees the fault.
func TestFailoverReplicated(t *testing.T) {
	r, nodes := newTestCluster(t, 3, testConfig())
	sys := anyNode(nodes)
	dead := primaryOf(t, r, 0)
	nodes[dead].fb.Partition()

	ctx := context.Background()
	fr, err := r.FilterRows(ctx, "demo", "joined", "logerror", "gt", 0)
	if err != nil {
		t.Fatalf("replicated cluster surfaced a shard loss: %v", err)
	}
	if fr.Degraded {
		t.Fatal("replicated failover reported degraded")
	}
	direct, err := sys.FilterRows("demo", "joined", "logerror", colstore.Gt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Rows) != len(direct) {
		t.Fatalf("filter rows %d vs %d", len(fr.Rows), len(direct))
	}
	for i := range fr.Rows {
		if fr.Rows[i] != direct[i] {
			t.Fatalf("failover filter mismatch at %d", i)
		}
	}

	tk, err := r.TopK(ctx, "demo", "joined", "logerror", 12)
	if err != nil {
		t.Fatal(err)
	}
	dtk, err := sys.TopK("demo", "joined", "logerror", 12)
	if err != nil {
		t.Fatal(err)
	}
	assertTopKEqual(t, tk.Entries, dtk)
	if r.met.failovers.Value() == 0 {
		t.Fatal("failover counter did not move")
	}
	if r.met.degraded.Value() != 0 {
		t.Fatal("degraded counter moved on a fully-replicated loss")
	}
}

// TestUnreplicatedShardDownDegraded: replication 1 and the owner of
// block 0 gone. The router returns everything the surviving shards hold
// plus a typed DegradedError naming exactly the missing row-blocks.
func TestUnreplicatedShardDownDegraded(t *testing.T) {
	cfg := testConfig()
	cfg.Replication = 1
	cfg.RetryRounds = 1
	r, nodes := newTestCluster(t, 3, cfg)
	sys := anyNode(nodes)
	dead := primaryOf(t, r, 0)
	nodes[dead].fb.Partition()

	ctx := context.Background()
	fr, err := r.FilterRows(ctx, "demo", "joined", "logerror", "gt", 0)
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("err = %v, want ErrDegraded", err)
	}
	var de *DegradedError
	if !errors.As(err, &de) {
		t.Fatalf("err = %T, want *DegradedError", err)
	}
	if len(de.Missing) == 0 || !errors.Is(de.Cause, ErrPartitioned) {
		t.Fatalf("degraded manifest = %+v", de)
	}
	if fr == nil || !fr.Degraded {
		t.Fatalf("degraded result not returned alongside the error: %+v", fr)
	}

	// The missing manifest must be exactly the dead shard's blocks.
	info, ok := sys.Metadata().IntermSnapshot("demo", "joined")
	if !ok {
		t.Fatal("joined not in catalog")
	}
	for b := 0; b*cfg.BlockRows < info.Rows; b++ {
		owner := r.ring.Owners(BlockRef{Model: "demo", Intermediate: "joined", Block: b})[0]
		missing := false
		for _, m := range de.Missing {
			if m.Block == b {
				missing = true
			}
		}
		if missing != (owner == dead) {
			t.Fatalf("block %d: missing=%v but owner=%s (dead=%s)", b, missing, owner, dead)
		}
	}

	// Served rows are exact: the single-node answer minus missing ranges.
	direct, err := sys.FilterRows("demo", "joined", "logerror", colstore.Gt, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for _, row := range direct {
		lost := false
		for _, m := range de.Missing {
			if row >= m.From && row < m.To {
				lost = true
			}
		}
		if !lost {
			want = append(want, row)
		}
	}
	if len(fr.Rows) != len(want) {
		t.Fatalf("served rows %d, want %d", len(fr.Rows), len(want))
	}
	for i := range want {
		if fr.Rows[i] != want[i] {
			t.Fatalf("served row mismatch at %d", i)
		}
	}

	// GetRows keeps global alignment: nil rows exactly over the gap.
	rr, err := r.GetRows(ctx, "demo", "joined", []string{"logerror"}, 0, info.Rows)
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("GetRows err = %v, want ErrDegraded", err)
	}
	for i, row := range rr.Data {
		lost := false
		for _, m := range de.Missing {
			if i >= m.From && i < m.To {
				lost = true
			}
		}
		if lost != (row == nil) {
			t.Fatalf("row %d: lost=%v but data nil=%v", i, lost, row == nil)
		}
	}
	if r.met.degraded.Value() == 0 {
		t.Fatal("degraded counter did not move")
	}
}

// TestMembershipFlapping: a flapping shard walks healthy → suspect →
// down and back, probe traffic backs off toward the cap while it fails
// (no thundering herd), and an alive-but-degraded shard is suspected but
// never declared down.
func TestMembershipFlapping(t *testing.T) {
	cfg := testConfig()
	cfg.DisableProbes = false
	cfg.Member = MemberConfig{
		ProbeInterval:   20 * time.Millisecond,
		ProbeTimeout:    200 * time.Millisecond,
		DownAfter:       3,
		MaxProbeBackoff: 160 * time.Millisecond,
	}
	r, nodes := newTestCluster(t, 3, cfg)
	var id ShardID = "s1"
	fb := nodes[id].fb

	// Degraded readiness: suspect, at normal cadence, never down.
	fb.SetDegraded(true)
	waitFor(t, "s1 suspect", func() bool { return r.mem.State(id) == Suspect })
	time.Sleep(250 * time.Millisecond) // many probe intervals
	if st := r.mem.State(id); st != Suspect {
		t.Fatalf("degraded shard state = %v, want suspect (never down)", st)
	}
	fb.Heal()
	waitFor(t, "s1 healthy again", func() bool { return r.mem.State(id) == Healthy })

	// Hard partition: down after DownAfter consecutive failures.
	fb.Partition()
	waitFor(t, "s1 down", func() bool { return r.mem.State(id) == Down })

	// While it stays down, probes back off toward MaxProbeBackoff. At the
	// 160ms cap (jittered to [80ms, 160ms)) a 600ms window sees at most
	// ~8 probes; a herd at the raw 20ms interval would send ~30+.
	before := fb.Calls("ready")
	time.Sleep(600 * time.Millisecond)
	if delta := fb.Calls("ready") - before; delta > 10 {
		t.Fatalf("%d probes in 600ms against a down shard: backoff not engaged", delta)
	}

	// Queries keep working around the down shard (replication 2).
	fr, err := r.FilterRows(context.Background(), "demo", "joined", "logerror", "gt", 0)
	if err != nil || fr.Degraded {
		t.Fatalf("query around down shard: %+v, %v", fr, err)
	}

	// Flap back: heal and recover to healthy.
	fb.Heal()
	waitFor(t, "s1 recovered", func() bool { return r.mem.State(id) == Healthy })
	if r.met.toDown.Value() == 0 || r.met.toHealthy.Value() == 0 {
		t.Fatal("membership transition counters did not move")
	}
}

// TestAdmissionShed: a shard with a full admission semaphore sheds
// instantly instead of queueing.
func TestAdmissionShed(t *testing.T) {
	cfg := testConfig()
	cfg.MaxPerShard = 1
	r, _ := newTestCluster(t, 1, cfg)
	h := r.shards["s0"]
	h.sem <- struct{}{} // occupy the only slot
	_, err := r.call(context.Background(), h, func(ctx context.Context, be Backend) (any, error) {
		t.Fatal("shed call must not reach the backend")
		return nil, nil
	})
	if !errors.Is(err, errShardBusy) {
		t.Fatalf("err = %v, want errShardBusy", err)
	}
	if r.met.shed.Value() != 1 {
		t.Fatalf("shed counter = %d", r.met.shed.Value())
	}
	<-h.sem
}

// TestScatterWiderThanAdmissionBound: one query over far more row-blocks
// than a shard admits at once must pace its own fan-out instead of
// shedding itself into a degraded answer with no fault anywhere.
func TestScatterWiderThanAdmissionBound(t *testing.T) {
	cfg := testConfig()
	cfg.MaxPerShard = 4
	cfg.BlockRows = 16
	r, nodes := newTestCluster(t, 1, cfg)
	sys := anyNode(nodes)
	ctx := context.Background()
	info, ok := sys.Metadata().IntermSnapshot("demo", "joined")
	if !ok || info.Rows < 3*cfg.MaxPerShard*cfg.BlockRows {
		t.Fatalf("fixture too small to overrun the bound: %+v", info)
	}

	tk, err := r.TopK(ctx, "demo", "joined", "logerror", 17)
	if err != nil || tk.Degraded {
		t.Fatalf("topk over %d blocks: degraded=%v err=%v", info.Rows/cfg.BlockRows, tk != nil && tk.Degraded, err)
	}
	dtk, err := sys.TopK("demo", "joined", "logerror", 17)
	if err != nil {
		t.Fatal(err)
	}
	assertTopKEqual(t, tk.Entries, dtk)

	fr, err := r.FilterRows(ctx, "demo", "joined", "logerror", "gt", 0)
	if err != nil || fr.Degraded {
		t.Fatalf("filter: %+v, %v", fr, err)
	}
	direct, err := sys.FilterRows("demo", "joined", "logerror", colstore.Gt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(fr.Rows) != fmt.Sprint(direct) {
		t.Fatalf("filter rows diverge from the single node: %d vs %d rows", len(fr.Rows), len(direct))
	}

	rr, err := r.GetRows(ctx, "demo", "joined", []string{"logerror"}, 0, info.Rows)
	if err != nil || rr.Degraded {
		t.Fatalf("rows: %v", err)
	}
	drm, err := sys.GetRows("demo", "joined", []string{"logerror"}, 0, info.Rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rr.Data {
		if rr.Data[i] == nil || !f32eq(rr.Data[i][0], drm.Row(i)[0]) {
			t.Fatalf("row %d diverges from the single node", i)
		}
	}
	if n := r.met.shed.Value(); n != 0 {
		t.Fatalf("mistique_cluster_shard_shed_total = %d: the scatter shed its own sub-requests", n)
	}
}

// TestPermanentErrorsNoFailover: a 404 is a definitive answer, not a
// fault — no retries, no failover, surfaced as-is.
func TestPermanentErrorsNoFailover(t *testing.T) {
	r, nodes := newTestCluster(t, 3, testConfig())
	_, err := r.FilterRows(context.Background(), "demo", "nope", "logerror", "gt", 0)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != 404 {
		t.Fatalf("unknown intermediate err = %v", err)
	}
	if errors.Is(err, ErrDegraded) {
		t.Fatal("a 404 must not masquerade as degradation")
	}
	// Exactly one catalog probe: the first shard's answer was final.
	total := 0
	for _, nd := range nodes {
		total += nd.fb.Calls("interm")
	}
	if total != 1 {
		t.Fatalf("%d catalog calls for a permanent error, want 1", total)
	}
}

// TestClusterMetricsExposition: the mistique_cluster_* series surface
// through the standard obs Prometheus exposition.
func TestClusterMetricsExposition(t *testing.T) {
	cfg := testConfig()
	r, nodes := newTestCluster(t, 3, cfg)
	dead := primaryOf(t, r, 0)
	nodes[dead].fb.Partition()
	if _, err := r.TopK(context.Background(), "demo", "joined", "logerror", 5); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := cfg.Obs.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"mistique_cluster_queries_total",
		"mistique_cluster_failovers_total",
		"mistique_cluster_hedges_fired_total",
		"mistique_cluster_degraded_results_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func assertRowsEqual(t *testing.T, got *RowsResult, want *tensor.Dense) {
	t.Helper()
	if len(got.Data) != want.Rows {
		t.Fatalf("rows [%d, %d): %d rows, want %d", got.From, got.To, len(got.Data), want.Rows)
	}
	for i := range got.Data {
		for j := range got.Data[i] {
			if !f32eq(got.Data[i][j], want.Row(i)[j]) {
				t.Fatalf("rows [%d, %d): mismatch at (%d,%d)", got.From, got.To, i, j)
			}
		}
	}
}

func assertTopKEqual(t *testing.T, got []mistique.TopKEntry, want []mistique.TopKEntry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("topk %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Row != want[i].Row || !f32eq(got[i].Value, want[i].Value) {
			t.Fatalf("topk mismatch at %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}
