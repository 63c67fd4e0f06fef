package parallel

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

// pinProcs sets GOMAXPROCS for one test and restores it afterwards.
func pinProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// peakTracker records the highest value a shared in-flight counter reached.
type peakTracker struct{ cur, peak int64 }

func (p *peakTracker) enter() {
	c := atomic.AddInt64(&p.cur, 1)
	for {
		old := atomic.LoadInt64(&p.peak)
		if c <= old || atomic.CompareAndSwapInt64(&p.peak, old, c) {
			return
		}
	}
}

func (p *peakTracker) leave() { atomic.AddInt64(&p.cur, -1) }

// TestWorkers: ForEach sizes itself from GOMAXPROCS — never more tasks in
// flight than the runtime setting, and exactly one (inline) at 1.
func TestWorkers(t *testing.T) {
	for _, procs := range []int{1, 3} {
		pinProcs(t, procs)
		var pt peakTracker
		err := ForEach(60, func(int) error {
			pt.enter()
			runtime.Gosched()
			pt.leave()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if pt.peak > int64(procs) {
			t.Fatalf("GOMAXPROCS=%d: observed %d concurrent tasks", procs, pt.peak)
		}
	}
}

func TestForEachVisitsAll(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		pinProcs(t, procs)
		const n = 100
		seen := make([]int32, n)
		err := ForEach(n, func(i int) error {
			atomic.AddInt32(&seen[i], 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("GOMAXPROCS=%d: index %d visited %d times", procs, i, c)
			}
		}
	}
	if err := ForEach(0, func(int) error { return errors.New("called") }); err != nil {
		t.Fatalf("ForEach(0) = %v", err)
	}
}

func TestForEachPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	for _, procs := range []int{1, 4} {
		pinProcs(t, procs)
		err := ForEach(50, func(i int) error {
			if i == 17 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("GOMAXPROCS=%d: err = %v, want boom", procs, err)
		}
	}
}

func TestForEachSerialStopsEarly(t *testing.T) {
	pinProcs(t, 1)
	var calls int32
	boom := errors.New("boom")
	_ = ForEach(10, func(i int) error {
		atomic.AddInt32(&calls, 1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if calls != 4 {
		t.Fatalf("serial ForEach made %d calls after error at 3", calls)
	}
}

func TestGroup(t *testing.T) {
	for _, limit := range []int{1, 4, 0} {
		g := NewGroup(limit)
		var sum int64
		for i := 1; i <= 64; i++ {
			g.Go(func() error {
				atomic.AddInt64(&sum, int64(i))
				return nil
			})
		}
		if err := g.Wait(); err != nil {
			t.Fatal(err)
		}
		if sum != 64*65/2 {
			t.Fatalf("limit=%d: sum = %d", limit, sum)
		}
	}
}

func TestGroupError(t *testing.T) {
	boom := errors.New("boom")
	g := NewGroup(4)
	for i := 0; i < 16; i++ {
		g.Go(func() error {
			if i == 7 {
				return boom
			}
			return nil
		})
	}
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if err := g.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err() = %v", err)
	}
}

// TestGroupStopsAfterFirstError: once a task failed no new task starts —
// inline and concurrent alike. With limit 4 and task 0 failing, tasks 1–3
// hold their slots until the failure is recorded, so the only tasks that
// ever run are the four that were already in flight.
func TestGroupStopsAfterFirstError(t *testing.T) {
	boom := errors.New("boom")
	for _, limit := range []int{1, 4} {
		g := NewGroup(limit)
		var ran int32
		for i := 0; i < 64; i++ {
			g.Go(func() error {
				atomic.AddInt32(&ran, 1)
				if i == 0 {
					return boom
				}
				for g.Err() == nil {
					runtime.Gosched()
				}
				return nil
			})
		}
		if err := g.Wait(); !errors.Is(err, boom) {
			t.Fatalf("limit=%d: err = %v, want boom", limit, err)
		}
		if ran > int32(limit) {
			t.Fatalf("limit=%d: %d tasks ran after task 0 failed", limit, ran)
		}
	}
}

func TestGroupBoundedConcurrency(t *testing.T) {
	const limit = 3
	g := NewGroup(limit)
	var pt peakTracker
	for i := 0; i < 40; i++ {
		g.Go(func() error {
			pt.enter()
			runtime.Gosched()
			pt.leave()
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if pt.peak > limit {
		t.Fatalf("observed %d concurrent tasks, bound %d", pt.peak, limit)
	}
}

// pipeline is the shape colstore's flush uses: produce runs in order on
// the caller, consume runs on the group. A failed produce stops the loop;
// a failed consume stops it through the group's error rule.
func pipeline(limit, n int, produce func(i int) (int, error), consume func(i, item int) error) error {
	g := NewGroup(limit)
	for i := 0; i < n && g.Err() == nil; i++ {
		item, err := produce(i)
		if err != nil {
			g.Wait()
			return err
		}
		g.Go(func() error { return consume(i, item) })
	}
	return g.Wait()
}

func TestPipelineVisitsAllInOrder(t *testing.T) {
	for _, limit := range []int{1, 2, 8} {
		const n = 100
		var produced []int // produce is serial: no locking needed
		consumed := make([]int32, n)
		err := pipeline(limit, n, func(i int) (int, error) {
			produced = append(produced, i)
			return i * i, nil
		}, func(i, item int) error {
			if item != i*i {
				t.Errorf("consume(%d) got %d", i, item)
			}
			atomic.AddInt32(&consumed[i], 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range produced {
			if p != i {
				t.Fatalf("limit=%d: produce order %v", limit, produced)
			}
		}
		for i, c := range consumed {
			if c != 1 {
				t.Fatalf("limit=%d: index %d consumed %d times", limit, i, c)
			}
		}
	}
}

func TestPipelineProduceError(t *testing.T) {
	boom := errors.New("boom")
	for _, limit := range []int{1, 4} {
		var produced int32
		err := pipeline(limit, 50, func(i int) (int, error) {
			atomic.AddInt32(&produced, 1)
			if i == 17 {
				return 0, boom
			}
			return i, nil
		}, func(i, item int) error { return nil })
		if !errors.Is(err, boom) {
			t.Fatalf("limit=%d: err = %v, want boom", limit, err)
		}
		if produced != 18 {
			t.Fatalf("limit=%d: produce ran %d times after failing at 17", limit, produced)
		}
	}
}

func TestPipelineConsumeErrorStopsProduction(t *testing.T) {
	boom := errors.New("boom")
	for _, limit := range []int{1, 4} {
		var produced int32
		failed := make(chan struct{})
		err := pipeline(limit, 1000, func(i int) (int, error) {
			atomic.AddInt32(&produced, 1)
			return i, nil
		}, func(i, item int) error {
			if i == 3 {
				close(failed)
				return boom
			}
			// Concurrent: hold the slot until item 3 fails, so production
			// cannot race ahead of a failing task never yet scheduled.
			if limit > 1 {
				<-failed
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("limit=%d: err = %v, want boom", limit, err)
		}
		// Inline stops right after item 3; concurrent may overrun by the
		// in-flight window but must not drain the whole range.
		if produced >= 1000 {
			t.Fatalf("limit=%d: produced all %d items after consume error", limit, produced)
		}
	}
}

// TestPipelineBoundedInFlight: Go blocks while every slot is taken, so at
// most limit items are being consumed plus the one the caller just
// produced.
func TestPipelineBoundedInFlight(t *testing.T) {
	const limit = 3
	var pt peakTracker
	err := pipeline(limit, 40, func(i int) (int, error) {
		pt.enter()
		return i, nil
	}, func(i, item int) error {
		runtime.Gosched()
		pt.leave()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if bound := int64(limit + 1); pt.peak > bound {
		t.Fatalf("observed %d in-flight items, bound %d", pt.peak, bound)
	}
}
