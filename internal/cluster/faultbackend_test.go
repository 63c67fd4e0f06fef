package cluster

import (
	"context"
	"errors"
	"sync"
	"time"

	"mistique/client"
)

// ErrPartitioned is the canonical injected network-partition error.
var ErrPartitioned = errors.New("faultnet: network partition (injected)")

// FaultBackend wraps a Backend with injectable network faults — the
// internal/faultfs philosophy extended to the wire. Tests arm a fault
// (latency, hard error, hang, alive-but-degraded), run queries or let
// probes fire, and flip the fault off again to model flaps and healed
// partitions. All methods are safe for concurrent use; per-op call
// counts back the no-thundering-herd probe assertions.
type FaultBackend struct {
	inner Backend

	mu       sync.Mutex
	latency  time.Duration
	failWith error
	hang     bool
	degraded bool
	calls    map[string]int
}

// NewFaultBackend wraps inner with a clean (no-fault) plan.
func NewFaultBackend(inner Backend) *FaultBackend {
	return &FaultBackend{inner: inner, calls: make(map[string]int)}
}

// SetLatency delays every call by d before it reaches the wire.
func (f *FaultBackend) SetLatency(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.latency = d
}

// SetError fails every call with err (nil disarms). Partition() is the
// shorthand for the canonical network-partition error.
func (f *FaultBackend) SetError(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failWith = err
}

// Partition makes the shard unreachable: every call, probes included,
// fails with ErrPartitioned.
func (f *FaultBackend) Partition() { f.SetError(ErrPartitioned) }

// SetHang makes every call block until its context expires — the
// worst network failure mode: no error, no bytes, just silence.
func (f *FaultBackend) SetHang(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hang = on
}

// SetDegraded makes Ready report alive-but-degraded (the /readyz 503
// shape) without touching the data path.
func (f *FaultBackend) SetDegraded(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.degraded = on
}

// Heal disarms every fault.
func (f *FaultBackend) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.latency, f.failWith, f.hang, f.degraded = 0, nil, false, false
}

// Calls returns how many times op ("ready", "topk", "filter", "rows",
// "interm") was attempted, faulted attempts included.
func (f *FaultBackend) Calls(op string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[op]
}

// gate records the call and applies the armed plan.
func (f *FaultBackend) gate(ctx context.Context, op string) error {
	f.mu.Lock()
	f.calls[op]++
	latency, failWith, hang := f.latency, f.failWith, f.hang
	f.mu.Unlock()
	if hang {
		<-ctx.Done()
		return ctx.Err()
	}
	if latency > 0 {
		t := time.NewTimer(latency)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
	return failWith
}

func (f *FaultBackend) Intermediate(ctx context.Context, model, interm string) (*client.IntermInfo, error) {
	if err := f.gate(ctx, "interm"); err != nil {
		return nil, err
	}
	return f.inner.Intermediate(ctx, model, interm)
}

func (f *FaultBackend) FilterRowsRange(ctx context.Context, model, interm, column, op string, bound float64, from, to int) ([]int, error) {
	if err := f.gate(ctx, "filter"); err != nil {
		return nil, err
	}
	return f.inner.FilterRowsRange(ctx, model, interm, column, op, bound, from, to)
}

func (f *FaultBackend) TopKRange(ctx context.Context, model, interm, column string, k, from, to int) ([]client.TopKEntry, error) {
	if err := f.gate(ctx, "topk"); err != nil {
		return nil, err
	}
	return f.inner.TopKRange(ctx, model, interm, column, k, from, to)
}

func (f *FaultBackend) GetRows(ctx context.Context, model, interm string, cols []string, from, to int) (*client.RowsResponse, error) {
	if err := f.gate(ctx, "rows"); err != nil {
		return nil, err
	}
	return f.inner.GetRows(ctx, model, interm, cols, from, to)
}

func (f *FaultBackend) Ready(ctx context.Context) (*client.ReadyResponse, bool, error) {
	if err := f.gate(ctx, "ready"); err != nil {
		return nil, false, err
	}
	f.mu.Lock()
	degraded := f.degraded
	f.mu.Unlock()
	if degraded {
		return &client.ReadyResponse{Status: "degraded", Reasons: []string{"injected degradation"}}, false, nil
	}
	return f.inner.Ready(ctx)
}
