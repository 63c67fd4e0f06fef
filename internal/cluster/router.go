package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"mistique"
	"mistique/client"
	"mistique/internal/diag"
	"mistique/internal/obs"
	"mistique/internal/parallel"
)

// Config controls a Router. Zero values select defaults.
type Config struct {
	// Replication is the replica count per row-block (default 2, clamped
	// to the shard count). 1 trades availability for capacity: losing a
	// shard degrades queries over its blocks instead of failing over.
	Replication int
	// BlockRows is the placement grain in rows (default 512). It need not
	// match the store's RowBlock size — the HTTP API takes arbitrary row
	// ranges — but aligning them keeps shard-local reads block-local.
	BlockRows int
	// MaxPerShard bounds concurrently in-flight sub-requests per shard
	// (default 32) — the PR 4 admission semaphore, applied client-side. A
	// shard at the bound sheds instantly and the replica chain moves on;
	// one scatter paces its own blocks to stay under it.
	MaxPerShard int
	// RetryRounds is how many extra passes over a block's replica chain
	// the router may take after the first (default 1). Each round starts
	// behind a full-jitter backoff.
	RetryRounds int
	// RetryBackoff is the first round's backoff cap, doubled per round
	// (default 25ms). The actual sleep is uniform in [0, cap].
	RetryBackoff time.Duration
	// MinHedgeDelay / MaxHedgeDelay clamp the hedge trigger — a shard's
	// p95, or coldHedgeDelay until it has enough latency samples for one
	// (defaults 5ms / 2s). Setting both equal pins the delay — the fault
	// tests do this for determinism.
	MinHedgeDelay time.Duration
	MaxHedgeDelay time.Duration
	// ShardTimeout bounds one sub-request attempt (default 2s). A hung
	// shard costs at most this per attempt, not the whole query deadline.
	ShardTimeout time.Duration
	// CatalogTTL caches (model, intermediate) row counts (default 1s).
	CatalogTTL time.Duration
	// Member configures the health checker; DisableProbes turns active
	// probing off (membership then stays all-healthy — unit tests).
	Member        MemberConfig
	DisableProbes bool
	// Obs receives the mistique_cluster_* instruments. Pass a serving
	// System's registry to surface them on its /metrics; nil disables.
	Obs *obs.Registry
}

func (c Config) withDefaults(shards int) Config {
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.Replication > shards {
		c.Replication = shards
	}
	if c.BlockRows <= 0 {
		c.BlockRows = 512
	}
	if c.MaxPerShard <= 0 {
		c.MaxPerShard = 32
	}
	if c.RetryRounds < 0 {
		c.RetryRounds = 0
	} else if c.RetryRounds == 0 {
		c.RetryRounds = 1
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.MinHedgeDelay <= 0 {
		c.MinHedgeDelay = 5 * time.Millisecond
	}
	if c.MaxHedgeDelay <= 0 {
		c.MaxHedgeDelay = 2 * time.Second
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 2 * time.Second
	}
	if c.CatalogTTL <= 0 {
		c.CatalogTTL = time.Second
	}
	return c
}

// virtualNodes is the ring vnode count per shard.
const virtualNodes = 64

// coldHedgeDelay is the hedge trigger before a shard has enough latency
// samples for a p95.
const coldHedgeDelay = 50 * time.Millisecond

// BlockRange identifies one row-block and the global rows it covers.
type BlockRange struct {
	Block int `json:"block"`
	From  int `json:"from"`
	To    int `json:"to"`
}

// Coverage is the degradation contract every scatter-gather result
// carries: Degraded reports partial coverage, Missing names exactly the
// row-blocks no replica could serve. A degraded answer is always honest
// about what it is — the data present is exact, the gaps are listed.
type Coverage struct {
	Degraded bool
	Missing  []BlockRange
}

// ErrDegraded is the errors.Is target for partial results.
var ErrDegraded = errors.New("cluster: degraded result")

// DegradedError is the typed partial-result error: the query's data (on
// the accompanying result) is exact but incomplete, and Missing is the
// manifest of unserved row-blocks. Callers that can tolerate gaps keep
// the result; callers that cannot treat it as the failure it also is.
type DegradedError struct {
	Model        string
	Intermediate string
	Missing      []BlockRange
	// Cause is the last underlying shard error.
	Cause error
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("cluster: degraded result for %s.%s: %d row-block(s) unserved (last error: %v)",
		e.Model, e.Intermediate, len(e.Missing), e.Cause)
}

func (e *DegradedError) Unwrap() error { return e.Cause }

// Is makes errors.Is(err, ErrDegraded) work.
func (e *DegradedError) Is(target error) bool { return target == ErrDegraded }

// errShardBusy marks a client-side admission shed; the replica chain
// treats it like any transient shard failure.
var errShardBusy = errors.New("cluster: shard admission full")

// shardHandle is the router's per-shard runtime state.
type shardHandle struct {
	id  ShardID
	be  Backend
	sem chan struct{}
	lat *latencyWindow

	latHist *obs.Histogram
	errs    *obs.Counter
}

// Router fans queries across shards. Create with New, stop with Close.
// A Router is safe for concurrent use.
type Router struct {
	cfg    Config
	ring   *Ring
	shards map[ShardID]*shardHandle
	order  []ShardID
	mem    *Membership
	met    *routerMetrics

	catMu   sync.Mutex
	catalog map[string]catalogEntry
}

type catalogEntry struct {
	info *client.IntermInfo
	exp  time.Time
}

// New builds a router over the given shards and starts the health
// checker (unless cfg.DisableProbes).
func New(shards []Shard, cfg Config) (*Router, error) {
	if len(shards) == 0 {
		return nil, errors.New("cluster: need at least one shard")
	}
	cfg = cfg.withDefaults(len(shards))
	met := newRouterMetrics(cfg.Obs)
	r := &Router{
		cfg:     cfg,
		shards:  make(map[ShardID]*shardHandle, len(shards)),
		order:   make([]ShardID, 0, len(shards)),
		met:     met,
		catalog: make(map[string]catalogEntry),
	}
	for _, s := range shards {
		if s.ID == "" || s.Backend == nil {
			return nil, errors.New("cluster: every shard needs an ID and a Backend")
		}
		if _, dup := r.shards[s.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard id %q", s.ID)
		}
		suffix := metricName(s.ID)
		r.shards[s.ID] = &shardHandle{
			id:      s.ID,
			be:      s.Backend,
			sem:     make(chan struct{}, cfg.MaxPerShard),
			lat:     newLatencyWindow(128),
			latHist: cfg.Obs.Histogram("mistique_cluster_shard_seconds_"+suffix, "sub-request wall time against shard "+string(s.ID)),
			errs:    cfg.Obs.Counter("mistique_cluster_shard_errors_"+suffix+"_total", "failed sub-requests against shard "+string(s.ID)),
		}
		r.order = append(r.order, s.ID)
	}
	r.ring = NewRing(r.order, virtualNodes, cfg.Replication)
	r.mem = newMembership(shards, cfg.Member, met)
	if !cfg.DisableProbes {
		r.mem.Start()
	}
	return r, nil
}

// Close stops the health checker.
func (r *Router) Close() { r.mem.Close() }

// call runs fn against one shard under its admission slot and the
// per-attempt timeout, recording success latency (hedge triggers derive
// from it) and errors.
func (r *Router) call(ctx context.Context, h *shardHandle, fn func(ctx context.Context, be Backend) (any, error)) (any, error) {
	select {
	case h.sem <- struct{}{}:
	default:
		r.met.shed.Inc()
		return nil, fmt.Errorf("%w: %s", errShardBusy, h.id)
	}
	defer func() { <-h.sem }()
	actx, cancel := context.WithTimeout(ctx, r.cfg.ShardTimeout)
	defer cancel()
	t0 := time.Now()
	v, err := fn(actx, h.be)
	if err != nil {
		h.errs.Inc()
		return nil, err
	}
	sec := time.Since(t0).Seconds()
	h.lat.observe(sec)
	h.latHist.Observe(sec)
	return v, nil
}

// hedgeDelay is how long to let a shard run before racing the next
// replica: its own observed p95, or coldHedgeDelay until enough samples
// exist, clamped.
func (r *Router) hedgeDelay(h *shardHandle) time.Duration {
	d := h.lat.p95()
	if d <= 0 {
		d = coldHedgeDelay
	}
	if d < r.cfg.MinHedgeDelay {
		d = r.cfg.MinHedgeDelay
	}
	if d > r.cfg.MaxHedgeDelay {
		d = r.cfg.MaxHedgeDelay
	}
	return d
}

// permanent reports whether a shard's answer is definitive (a 4xx other
// than 429): retrying or failing over cannot change "no such model".
func permanent(err error) bool {
	var ae *client.APIError
	if errors.As(err, &ae) {
		return ae.Status >= 400 && ae.Status < 500 && ae.Status != 429
	}
	return false
}

// chainFor orders a block's replica chain for attempting: healthy first
// (ring order within each class), then suspect, then down. Suspects are
// routed around, not routed out — and a down shard stays reachable as a
// last resort because the membership view may be stale.
func (r *Router) chainFor(b BlockRef) []*shardHandle {
	owners := r.ring.Owners(b)
	var healthy, suspect, down []*shardHandle
	for _, id := range owners {
		h := r.shards[id]
		switch r.mem.State(id) {
		case Healthy:
			healthy = append(healthy, h)
		case Suspect:
			suspect = append(suspect, h)
		default:
			down = append(down, h)
		}
	}
	return append(append(healthy, suspect...), down...)
}

// executeBlock answers one sub-query from a block's replica chain.
//
// The attempt plan is the chain repeated over 1+RetryRounds rounds. The
// primary starts immediately; a hedge starts the next replica when the
// running one sits past its p95; an error starts the next replica at
// once (failover); a fresh round starts only behind a full-jitter
// backoff. The first success wins and cancels every other attempt.
func (r *Router) executeBlock(ctx context.Context, chain []*shardHandle, fn func(ctx context.Context, be Backend) (any, error)) (any, error) {
	if len(chain) == 0 {
		return nil, errors.New("cluster: empty replica chain")
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	total := (1 + r.cfg.RetryRounds) * len(chain)
	type attempt struct {
		v     any
		err   error
		hedge bool
	}
	results := make(chan attempt, total)
	next, inflight := 0, 0
	start := func(hedge bool) {
		h := chain[next%len(chain)]
		next++
		inflight++
		if hedge {
			r.met.hedgesFired.Inc()
		}
		go func() {
			v, err := r.call(cctx, h, fn)
			results <- attempt{v, err, hedge}
		}()
	}
	start(false)
	hedge := time.NewTimer(r.hedgeDelay(chain[0]))
	defer hedge.Stop()
	var backoff <-chan time.Time
	var backoffTimer *time.Timer
	defer func() {
		if backoffTimer != nil {
			backoffTimer.Stop()
		}
	}()
	wait := r.cfg.RetryBackoff
	var lastErr error
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-hedge.C:
			if next < len(chain) && backoff == nil {
				start(true)
				if next < len(chain) {
					hedge.Reset(r.hedgeDelay(chain[next-1]))
				}
			}
		case <-backoff:
			backoff = nil
			r.met.retries.Inc()
			start(false)
		case res := <-results:
			inflight--
			if res.err == nil {
				if res.hedge {
					r.met.hedgesWon.Inc()
				}
				return res.v, nil
			}
			if permanent(res.err) {
				return nil, res.err
			}
			lastErr = res.err
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			switch {
			case next < len(chain):
				// Same round, untried replica: fail over immediately.
				r.met.failovers.Inc()
				start(false)
			case next < total && backoff == nil && inflight == 0:
				// Chain exhausted this round; buy the next one with a
				// spread-out sleep so synchronized failures don't retry
				// as a wave.
				backoffTimer = time.NewTimer(fullJitter(wait))
				backoff = backoffTimer.C
				wait *= 2
			case inflight == 0 && backoff == nil:
				return nil, lastErr
			}
		}
	}
}

// intermInfo resolves an intermediate's catalog entry, trying shards in
// membership-preferred order and caching briefly. A permanent answer
// (404: no such model/intermediate) is returned as-is — failover cannot
// conjure a model into existence.
func (r *Router) intermInfo(ctx context.Context, model, interm string) (*client.IntermInfo, error) {
	key := model + "\x00" + interm
	r.catMu.Lock()
	e, ok := r.catalog[key]
	r.catMu.Unlock()
	if ok && time.Now().Before(e.exp) {
		return e.info, nil
	}
	var lastErr error
	for _, h := range r.preferredOrder() {
		v, err := r.call(ctx, h, func(ctx context.Context, be Backend) (any, error) {
			return be.Intermediate(ctx, model, interm)
		})
		if err == nil {
			info := v.(*client.IntermInfo)
			r.catMu.Lock()
			r.catalog[key] = catalogEntry{info: info, exp: time.Now().Add(r.cfg.CatalogTTL)}
			r.catMu.Unlock()
			return info, nil
		}
		if permanent(err) {
			return nil, err
		}
		lastErr = err
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
	}
	return nil, fmt.Errorf("cluster: catalog lookup %s.%s failed on every shard: %w", model, interm, lastErr)
}

// preferredOrder lists every shard, healthy before suspect before down,
// stable within a class.
func (r *Router) preferredOrder() []*shardHandle {
	var healthy, suspect, down []*shardHandle
	for _, id := range r.order {
		h := r.shards[id]
		switch r.mem.State(id) {
		case Healthy:
			healthy = append(healthy, h)
		case Suspect:
			suspect = append(suspect, h)
		default:
			down = append(down, h)
		}
	}
	return append(append(healthy, suspect...), down...)
}

// gathered is one scatter's outcome: the target, its clamped row window,
// the placement blocks laid over the window (each clipped to it) and
// block i's answer in served[i] — the zero T where no replica could serve
// the block, which Coverage then lists.
type gathered[T any] struct {
	info     *client.IntermInfo
	from, to int
	blocks   []BlockRange
	served   []T
	Coverage
}

// scatterGather is the skeleton every router query shares. It resolves
// the target and clamps [from, to) by Plan's rules — to == 0 or past the
// end means the last row; a negative, inverted or past-the-end window
// wraps mistique.ErrBadQuery — then lays the window out in clipped
// placement blocks and runs call once per block over its replica chain.
// Each op merges the served blocks by its own rule. With unserved blocks
// the error is the typed *DegradedError and the outcome is still
// returned; any other error returns none.
//
// At most half the per-shard admission bound of one query's blocks are in
// flight: a block has at most one live attempt per shard, and the block
// that held the slot before it may still have a cancelled hedge loser
// winding down there, so one scatter never fills a shard's semaphore and
// call sheds only across different queries.
func scatterGather[T any](ctx context.Context, r *Router, model, interm string, from, to int,
	call func(ctx context.Context, be Backend, br BlockRange) (T, error)) (*gathered[T], error) {
	if from < 0 || to < 0 || (to != 0 && to < from) {
		return nil, fmt.Errorf("cluster: %w: bad row range [%d, %d)", mistique.ErrBadQuery, from, to)
	}
	info, err := r.intermInfo(ctx, model, interm)
	if err != nil {
		return nil, err
	}
	if from > info.Rows {
		return nil, fmt.Errorf("cluster: %w: row %d is past the %d rows of %s.%s", mistique.ErrBadQuery, from, info.Rows, model, interm)
	}
	if to == 0 || to > info.Rows {
		to = info.Rows
	}
	r.met.queries.Inc()
	out := &gathered[T]{info: info, from: from, to: to}
	for b, size := from/r.cfg.BlockRows, r.cfg.BlockRows; from < to && b*size < to; b++ {
		out.blocks = append(out.blocks, BlockRange{Block: b, From: max(b*size, from), To: min((b+1)*size, to)})
	}
	out.served = make([]T, len(out.blocks))
	errs := make([]error, len(out.blocks))
	g := parallel.NewGroup(max(1, r.cfg.MaxPerShard/2))
	for i, br := range out.blocks {
		g.Go(func() error {
			chain := r.chainFor(BlockRef{Model: model, Intermediate: interm, Block: br.Block})
			v, err := r.executeBlock(ctx, chain, func(ctx context.Context, be Backend) (any, error) {
				return call(ctx, be, br)
			})
			if errs[i] = err; err == nil {
				out.served[i] = v.(T)
			}
			return nil // a failed block is reported per block, never stops the rest
		})
	}
	g.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var cause error
	for i, err := range errs {
		if err != nil {
			out.Degraded = true
			out.Missing = append(out.Missing, out.blocks[i])
			cause = err
		}
	}
	if !out.Degraded {
		return out, nil
	}
	r.met.degraded.Inc()
	return out, &DegradedError{Model: model, Intermediate: interm, Missing: out.Missing, Cause: cause}
}

// FilterResult is a scatter-gather predicate scan answer. Rows holds the
// matching global offsets from every served block, ascending.
type FilterResult struct {
	Rows []int
	Coverage
}

// FilterRows evaluates `column op bound` across the cluster. Op is one
// of "gt", "ge", "lt", "le". On partial coverage the returned result
// holds every served block's rows and err is a *DegradedError.
//
// Merge rule: concatenation by block. Blocks are row-disjoint and served
// in ascending order, so the global ascending invariant holds.
func (r *Router) FilterRows(ctx context.Context, model, interm, column, op string, bound float64) (*FilterResult, error) {
	g, err := scatterGather(ctx, r, model, interm, 0, 0, func(ctx context.Context, be Backend, br BlockRange) ([]int, error) {
		return be.FilterRowsRange(ctx, model, interm, column, op, bound, br.From, br.To)
	})
	if g == nil {
		return nil, err
	}
	res := &FilterResult{Coverage: g.Coverage}
	for _, rows := range g.served {
		res.Rows = append(res.Rows, rows...)
	}
	return res, err
}

// TopKResult is a scatter-gather TOPK answer in the engine's pinned rank
// order.
type TopKResult struct {
	Entries []mistique.TopKEntry
	Coverage
}

// TopK ranks the k largest values of a column across the cluster. A
// negative k wraps mistique.ErrBadQuery, as on one node.
//
// Merge rule: a k-way merge of per-block candidate lists under
// diag.RankLess — the comparator every shard ranked with — so the answer
// is bit-identical to a single-node TopK over the union of served blocks.
// k candidates per block suffice: the global top-k holds at most k rows
// from any one block.
func (r *Router) TopK(ctx context.Context, model, interm, column string, k int) (*TopKResult, error) {
	if k < 0 {
		return nil, fmt.Errorf("cluster: %w: topk needs k >= 0, got %d", mistique.ErrBadQuery, k)
	}
	g, err := scatterGather(ctx, r, model, interm, 0, 0, func(ctx context.Context, be Backend, br BlockRange) ([]client.TopKEntry, error) {
		return be.TopKRange(ctx, model, interm, column, k, br.From, br.To)
	})
	if g == nil {
		return nil, err
	}
	res := &TopKResult{Coverage: g.Coverage}
	for _, entries := range g.served {
		for _, e := range entries {
			res.Entries = append(res.Entries, mistique.TopKEntry{Row: e.Row, Value: float32(e.Value)})
		}
	}
	sort.Slice(res.Entries, func(a, b int) bool {
		ea, eb := res.Entries[a], res.Entries[b]
		return diag.RankLess(ea.Value, eb.Value, ea.Row, eb.Row)
	})
	res.Entries = res.Entries[:min(k, len(res.Entries))]
	return res, err
}

// RowsResult is a scatter-gather row-range read. Data[i] is global row
// From+i; rows belonging to a missing block are nil, so a degraded
// answer keeps global alignment instead of silently compacting.
type RowsResult struct {
	Cols []string
	From int
	To   int
	Data [][]float32
	Coverage
}

// GetRows reads rows [from, to) of the given columns (nil cols: all) with
// the engine's range rules: to == 0 means the last row.
//
// Merge rule: row stitching — each served block's rows land at their
// global offset.
func (r *Router) GetRows(ctx context.Context, model, interm string, cols []string, from, to int) (*RowsResult, error) {
	g, err := scatterGather(ctx, r, model, interm, from, to, func(ctx context.Context, be Backend, br BlockRange) (*client.RowsResponse, error) {
		return be.GetRows(ctx, model, interm, cols, br.From, br.To)
	})
	if g == nil {
		return nil, err
	}
	if len(cols) == 0 {
		cols = g.info.Columns
	}
	res := &RowsResult{Cols: cols, From: g.from, To: g.to, Data: make([][]float32, g.to-g.from), Coverage: g.Coverage}
	for i, resp := range g.served {
		if resp == nil {
			continue
		}
		for j, row := range resp.Data {
			res.Data[g.blocks[i].From-g.from+j] = client.Floats(row)
		}
	}
	return res, err
}

// GetIntermediate fetches the first nEx rows (<= 0: all) of the named
// columns. The router always reads stored chunks — the read-vs-rerun
// choice is a per-shard concern the single-node API keeps.
func (r *Router) GetIntermediate(ctx context.Context, model, interm string, cols []string, nEx int) (*RowsResult, error) {
	return r.GetRows(ctx, model, interm, cols, 0, max(nEx, 0))
}

// latencyWindow is a small sliding window of success latencies backing
// the p95-derived hedge trigger.
type latencyWindow struct {
	mu   sync.Mutex
	buf  []float64
	n    int // total observations
	next int
}

func newLatencyWindow(size int) *latencyWindow {
	return &latencyWindow{buf: make([]float64, size)}
}

func (w *latencyWindow) observe(sec float64) {
	w.mu.Lock()
	w.buf[w.next] = sec
	w.next = (w.next + 1) % len(w.buf)
	w.n++
	w.mu.Unlock()
}

// p95 returns the window's 95th percentile as a duration, or 0 until at
// least 8 samples exist (callers fall back to the configured default —
// hedging off a couple of samples would be noise-driven).
func (w *latencyWindow) p95() time.Duration {
	w.mu.Lock()
	size := w.n
	if size > len(w.buf) {
		size = len(w.buf)
	}
	if size < 8 {
		w.mu.Unlock()
		return 0
	}
	vals := make([]float64, size)
	copy(vals, w.buf[:size])
	w.mu.Unlock()
	sort.Float64s(vals)
	idx := int(0.95 * float64(size-1))
	return time.Duration(vals[idx] * float64(time.Second))
}
