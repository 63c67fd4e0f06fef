package sample

import (
	"fmt"
	"sync"
)

// splitmix is the deterministic RNG behind row selection (splitmix64).
// Its single-word state is what Sample.RNGState persists, so a resumed
// builder continues the exact sequence.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform draw in [0, n). The modulo bias at 64-bit state
// is far below anything the bounds can feel.
func (r *splitmix) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// Builder maintains a Sample incrementally, batch by batch — the
// streaming ingest path's sampler. Safe for concurrent use.
type Builder struct {
	mu  sync.Mutex
	s   *Sample
	rng splitmix
}

// NewBuilder starts an empty sample over the named columns.
func NewBuilder(cols []string, cfg Config) *Builder {
	return &Builder{s: newSample(cols, cfg), rng: splitmix{seed}}
}

// newSample is an empty sample over cols, its RNG at the start of the
// seed's sequence.
func newSample(cols []string, cfg Config) *Sample {
	s := &Sample{
		Cols:     append([]string(nil), cols...),
		Cap:      cfg.withDefaults().Cap,
		Seed:     seed,
		RNGState: seed,
		Stats:    make([]ColStats, len(cols)),
	}
	for i := range s.Stats {
		s.Stats[i] = newColStats()
	}
	return s
}

// Resume continues a builder from a copy of a persisted sample (e.g. after
// a WAL replay); the row-selection sequence picks up exactly where the
// snapshot's RNGState left off. s itself stays untouched.
func Resume(s *Sample) *Builder {
	return &Builder{s: s.clone(), rng: splitmix{s.RNGState}}
}

// Seen returns how many rows the builder has consumed.
func (b *Builder) Seen() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.s.Seen
}

// Add offers one row (len(vals) must equal the column count).
func (b *Builder) Add(vals []float32) error { return b.AddRows([][]float32{vals}) }

// AddRows offers a batch of rows as one step: every row is checked
// first, then all are added under one lock hold, so View never sees part
// of a batch.
func (b *Builder) AddRows(rows [][]float32) error {
	c := len(b.s.Cols)
	for _, r := range rows {
		if len(r) != c {
			return fmt.Errorf("sample: row has %d values, want %d", len(r), c)
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, r := range rows {
		b.addLocked(r)
	}
	return nil
}

// addLocked is Algorithm R's step for one row. Caller holds b.mu.
func (b *Builder) addLocked(vals []float32) {
	s := b.s
	row := s.Seen
	c := len(s.Cols)
	if len(s.RowIDs) < s.Cap {
		s.RowIDs = append(s.RowIDs, row)
		s.Data = append(s.Data, vals...)
	} else if j := b.rng.intn(row + 1); j < int64(s.Cap) {
		s.RowIDs[j] = row
		copy(s.Data[j*int64(c):(j+1)*int64(c)], vals)
	}
	for i, v := range vals {
		s.Stats[i].observe(v)
	}
	s.Seen++
	s.RNGState = b.rng.s
}

// View runs fn on the live sample under the builder's lock, so fn sees
// whole batches and rows added meanwhile wait. Nothing is copied: fn
// must copy out whatever it keeps, and must not call back into b.
func (b *Builder) View(fn func(*Sample)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fn(b.s)
}

// Snapshot returns a deep copy safe to persist or query while the builder
// keeps ingesting.
func (b *Builder) Snapshot() *Sample {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.s.clone()
}

func (s *Sample) clone() *Sample {
	// Field-by-field, not a struct copy: Sample carries a rank-memo mutex,
	// and a clone starts with a fresh (empty) memo anyway.
	return &Sample{
		Cols:     append([]string(nil), s.Cols...),
		Seen:     s.Seen,
		Cap:      s.Cap,
		Seed:     s.Seed,
		RNGState: s.RNGState,
		Stats:    append([]ColStats(nil), s.Stats...),
		RowIDs:   append([]int64(nil), s.RowIDs...),
		Data:     append([]float32(nil), s.Data...),
	}
}

// MatrixBuilder builds the same sample a Builder would, but from columnar
// input: the row-selection plan is computed up front (it is
// value-independent), after which SetColumn calls fill disjoint slices
// and may run concurrently — one call per column, e.g. under
// parallel.ForEach in the ingest path.
type MatrixBuilder struct {
	s *Sample
	// plan[row] is the row's final slot in the reservoir, -1 when not
	// sampled.
	plan []int32
}

// NewMatrixBuilder plans a sample over n rows of the named columns. The
// plan replays the exact per-row decision sequence a streaming Builder
// makes, so batch and stream ingest of the same rows produce identical
// samples.
func NewMatrixBuilder(cols []string, n int, cfg Config) *MatrixBuilder {
	s := newSample(cols, cfg)
	mb := &MatrixBuilder{s: s, plan: make([]int32, n)}
	rng := splitmix{seed}

	// Simulate the reservoir: slotOwner[slot] = final occupant.
	slotOwner := make([]int32, 0, min(n, s.Cap))
	for row := 0; row < n; row++ {
		if len(slotOwner) < s.Cap {
			slotOwner = append(slotOwner, int32(row))
		} else if j := rng.intn(int64(row) + 1); j < int64(s.Cap) {
			slotOwner[j] = int32(row)
		}
	}
	s.RNGState = rng.s
	s.Seen = int64(n)

	// Invert slot ownership into per-row plans and allocate the sample.
	for i := range mb.plan {
		mb.plan[i] = -1
	}
	s.RowIDs = make([]int64, len(slotOwner))
	s.Data = make([]float32, len(slotOwner)*len(cols))
	for slot, row := range slotOwner {
		mb.plan[row] = int32(slot)
		s.RowIDs[slot] = int64(row)
	}
	return mb
}

// SetColumn fills column j from its full n-row value slice. Each call
// touches only column-j slots of the sample (and its own Stats entry), so
// distinct columns may be set concurrently.
func (mb *MatrixBuilder) SetColumn(j int, vals []float32) {
	s := mb.s
	c := len(s.Cols)
	st := newColStats()
	for row, v := range vals {
		st.observe(v)
		if slot := mb.plan[row]; slot >= 0 {
			s.Data[int(slot)*c+j] = v
		}
	}
	s.Stats[j] = st
}

// Finish returns the completed sample. The builder must not be used
// afterwards.
func (mb *MatrixBuilder) Finish() *Sample { return mb.s }
