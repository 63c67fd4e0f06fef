package cluster

import (
	"context"

	"mistique/client"
)

// Backend is the per-shard slice of the query API the router fans out
// over. HTTPBackend implements it over the typed HTTP client; the
// fault-matrix tests wrap any Backend with injectable network faults.
type Backend interface {
	// Intermediate fetches one intermediate's catalog entry (row count,
	// columns) — the router needs it to lay out row-blocks.
	Intermediate(ctx context.Context, model, interm string) (*client.IntermInfo, error)
	// FilterRowsRange evaluates `column op bound` over global rows
	// [from, to), returning global row offsets in ascending order.
	FilterRowsRange(ctx context.Context, model, interm, column, op string, bound float64, from, to int) ([]int, error)
	// TopKRange ranks global rows [from, to) of a column in the engine's
	// pinned RankLess order, returning global row ids.
	TopKRange(ctx context.Context, model, interm, column string, k, from, to int) ([]client.TopKEntry, error)
	// GetRows reads rows [from, to) of the given columns.
	GetRows(ctx context.Context, model, interm string, cols []string, from, to int) (*client.RowsResponse, error)
	// Ready probes readiness; ready == false with a nil error means the
	// node is alive but degraded (shed traffic, don't declare it dead).
	Ready(ctx context.Context) (resp *client.ReadyResponse, ready bool, err error)
}

// HTTPBackend adapts mistique/client to the Backend interface. Build the
// client with WithMaxRetries(0) (or very few): the router owns the retry,
// hedging and failover policy, and client-side retries underneath it
// would double-spend the latency budget on a shard the router is about
// to route around.
type HTTPBackend struct {
	C *client.Client
}

// NewHTTPBackend wraps a configured client.
func NewHTTPBackend(c *client.Client) *HTTPBackend { return &HTTPBackend{C: c} }

func (b *HTTPBackend) Intermediate(ctx context.Context, model, interm string) (*client.IntermInfo, error) {
	return b.C.Intermediate(ctx, model, interm)
}

func (b *HTTPBackend) FilterRowsRange(ctx context.Context, model, interm, column, op string, bound float64, from, to int) ([]int, error) {
	return b.C.FilterRowsRange(ctx, model, interm, column, op, bound, from, to)
}

func (b *HTTPBackend) TopKRange(ctx context.Context, model, interm, column string, k, from, to int) ([]client.TopKEntry, error) {
	return b.C.TopKRange(ctx, model, interm, column, k, from, to)
}

func (b *HTTPBackend) GetRows(ctx context.Context, model, interm string, cols []string, from, to int) (*client.RowsResponse, error) {
	return b.C.GetRows(ctx, model, interm, cols, from, to)
}

func (b *HTTPBackend) Ready(ctx context.Context) (*client.ReadyResponse, bool, error) {
	return b.C.Ready(ctx)
}
