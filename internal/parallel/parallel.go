// Package parallel is the one worker pool behind every concurrent hot path
// in mistique: ingest fan-out (per-column quantize + encode + dedup),
// partition flush/compaction, parallel chunk reads, the recovery scan and
// the cluster router's block scatter.
//
// It is a bounded error group (Group) plus a parallel-for over it
// (ForEach). Fan-outs size themselves from runtime.GOMAXPROCS; the Go
// runtime's own setting is the only control. One error rule holds
// everywhere: no task starts after the first recorded error, tasks already
// running finish, and the first error is returned.
package parallel

import (
	"runtime"
	"sync"
)

// Group runs submitted tasks with at most limit of them in flight. At
// limit 1 Go runs each task inline on the caller, so a serial run is the
// same loop rather than a second code path.
type Group struct {
	sem chan struct{} // nil at limit 1: tasks run inline
	wg  sync.WaitGroup
	mu  sync.Mutex
	err error
}

// NewGroup returns a group bounded to limit concurrent tasks; limit <= 0
// selects runtime.GOMAXPROCS(0).
func NewGroup(limit int) *Group {
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	g := &Group{}
	if limit > 1 {
		g.sem = make(chan struct{}, limit)
	}
	return g
}

// Go runs fn once a slot frees up, or skips it if a task already failed.
// Go blocks while every slot is taken, which is what bounds a producer
// loop's in-flight items (e.g. serialized partition images) to the limit.
func (g *Group) Go(fn func() error) {
	if g.sem == nil {
		if g.Err() == nil {
			g.record(fn())
		}
		return
	}
	g.sem <- struct{}{}
	if g.Err() != nil {
		<-g.sem
		return
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		// Record before freeing the slot, so a Go waiting on it sees the error.
		g.record(fn())
		<-g.sem
	}()
}

// Wait blocks until every started task finished and returns the first
// error any of them produced.
func (g *Group) Wait() error {
	g.wg.Wait()
	return g.Err()
}

// Err returns the first recorded error without waiting; producer loops use
// it to stop computing work that would be skipped.
func (g *Group) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

func (g *Group) record(err error) {
	if err == nil {
		return
	}
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
}

// ForEach runs fn(i) for every i in [0, n) on a GOMAXPROCS-bounded group
// and returns the first error; no index starts after it.
func ForEach(n int, fn func(i int) error) error {
	g := NewGroup(0)
	for i := 0; i < n && g.Err() == nil; i++ {
		g.Go(func() error { return fn(i) })
	}
	return g.Wait()
}
