package sample

import (
	"fmt"
	"math"
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

// Builder maintains a Sample incrementally, one row at a time — the
// streaming ingest path's sampler. Safe for concurrent use.
type Builder struct {
	mu       sync.Mutex
	s        *Sample
	rng      splitmix
	stratIdx int            // index of StratifyColumn in Cols, -1 when off
	strata   map[uint32]int // float32 bits of label → index into s.Strata
}

// NewBuilder starts an empty sample over the named columns.
func NewBuilder(cols []string, cfg Config) *Builder {
	cfg = cfg.withDefaults()
	s := &Sample{
		Cols:        append([]string(nil), cols...),
		Cap:         cfg.Cap,
		Seed:        cfg.Seed,
		RNGState:    cfg.Seed,
		Stats:       make([]ColStats, len(cols)),
		StratifyCol: cfg.StratifyColumn,
		StratumCap:  cfg.StratumCap,
		MaxStrata:   cfg.MaxStrata,
	}
	for i := range s.Stats {
		s.Stats[i] = newColStats()
	}
	return newBuilderFor(s)
}

// Resume continues a builder from a persisted sample (e.g. after a WAL
// replay); the row-selection sequence picks up exactly where the
// snapshot's RNGState left off. The builder owns s from here on.
func Resume(s *Sample) *Builder {
	return newBuilderFor(s)
}

func newBuilderFor(s *Sample) *Builder {
	b := &Builder{s: s, rng: splitmix{s.RNGState}, stratIdx: -1}
	if s.StratifyCol != "" && !s.StrataOverflow {
		b.stratIdx = s.ColIndex(s.StratifyCol)
	}
	if b.stratIdx >= 0 {
		b.strata = make(map[uint32]int, len(s.Strata))
		for i := range s.Strata {
			b.strata[math.Float32bits(s.Strata[i].Key)] = i
		}
	}
	return b
}

// Seen returns how many rows the builder has consumed.
func (b *Builder) Seen() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.s.Seen
}

// Add offers one row (len(vals) must equal the column count).
func (b *Builder) Add(vals []float32) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.s
	if len(vals) != len(s.Cols) {
		return fmt.Errorf("sample: row has %d values, want %d", len(vals), len(s.Cols))
	}
	row := s.Seen
	c := len(s.Cols)

	// Uniform reservoir (Algorithm R).
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

	if b.stratIdx >= 0 {
		b.addStratum(row, vals)
	}
	s.Seen++
	s.RNGState = b.rng.s
	return nil
}

func (b *Builder) addStratum(row int64, vals []float32) {
	s := b.s
	lab := vals[b.stratIdx]
	if lab != lab { // NaN labels belong to no stratum
		return
	}
	bits := math.Float32bits(lab)
	idx, ok := b.strata[bits]
	if !ok {
		if len(s.Strata) >= s.MaxStrata {
			// Too many classes: abandon the stratified variant (uniform
			// sampling keeps working; confusion falls back to it).
			s.StrataOverflow = true
			s.Strata = nil
			b.strata = nil
			b.stratIdx = -1
			return
		}
		idx = len(s.Strata)
		s.Strata = append(s.Strata, Stratum{Key: lab})
		b.strata[bits] = idx
	}
	str := &s.Strata[idx]
	c := len(s.Cols)
	if len(str.RowIDs) < s.StratumCap {
		str.RowIDs = append(str.RowIDs, row)
		str.Data = append(str.Data, vals...)
	} else if j := b.rng.intn(str.Count + 1); j < int64(s.StratumCap) {
		str.RowIDs[j] = row
		copy(str.Data[j*int64(c):(j+1)*int64(c)], vals)
	}
	str.Count++
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
	cp := &Sample{
		Cols:           append([]string(nil), s.Cols...),
		Seen:           s.Seen,
		Cap:            s.Cap,
		Seed:           s.Seed,
		RNGState:       s.RNGState,
		Stats:          append([]ColStats(nil), s.Stats...),
		RowIDs:         append([]int64(nil), s.RowIDs...),
		Data:           append([]float32(nil), s.Data...),
		StratifyCol:    s.StratifyCol,
		StratumCap:     s.StratumCap,
		MaxStrata:      s.MaxStrata,
		StrataOverflow: s.StrataOverflow,
	}
	if s.Strata == nil {
		return cp
	}
	cp.Strata = make([]Stratum, len(s.Strata))
	for i, str := range s.Strata {
		cp.Strata[i] = Stratum{
			Key:    str.Key,
			Count:  str.Count,
			RowIDs: append([]int64(nil), str.RowIDs...),
			Data:   append([]float32(nil), str.Data...),
		}
	}
	return cp
}

// MatrixBuilder builds the same sample a Builder would, but from columnar
// input: the row-selection plan is computed up front (it is
// value-independent), after which SetColumn calls fill disjoint slices
// and may run concurrently — one call per column, e.g. under
// parallel.ForEach in the ingest path.
type MatrixBuilder struct {
	s *Sample
	// plan[row] is the row's final slot in the uniform reservoir, -1 when
	// not sampled; strIdx/strSlot likewise for the stratified variant.
	plan    []int32
	strIdx  []int32
	strSlot []int32
}

// NewMatrixBuilder plans a sample over n rows of the named columns.
// labels carries the stratify column's values (nil disables the
// stratified variant regardless of config). The plan replays the exact
// per-row decision sequence a streaming Builder makes, so batch and
// stream ingest of the same rows produce identical samples.
func NewMatrixBuilder(cols []string, n int, labels []float32, cfg Config) *MatrixBuilder {
	cfg = cfg.withDefaults()
	if labels != nil && len(labels) != n {
		labels = nil
	}
	s := &Sample{
		Cols:        append([]string(nil), cols...),
		Cap:         cfg.Cap,
		Seed:        cfg.Seed,
		RNGState:    cfg.Seed,
		Stats:       make([]ColStats, len(cols)),
		StratifyCol: cfg.StratifyColumn,
		StratumCap:  cfg.StratumCap,
		MaxStrata:   cfg.MaxStrata,
	}
	for i := range s.Stats {
		s.Stats[i] = newColStats()
	}
	stratOn := labels != nil && cfg.StratifyColumn != ""
	if !stratOn {
		s.StratifyCol = ""
	}

	mb := &MatrixBuilder{s: s, plan: make([]int32, n)}
	rng := splitmix{s.Seed}
	c := len(cols)

	// Simulate the uniform reservoir: slotOwner[slot] = final occupant.
	k := n
	if k > s.Cap {
		k = s.Cap
	}
	slotOwner := make([]int32, 0, k)
	type stratState struct {
		key    float32
		count  int64
		owners []int32
	}
	var strata []stratState
	strataByBits := map[uint32]int{}
	if stratOn {
		mb.strIdx = make([]int32, n)
		mb.strSlot = make([]int32, n)
	}
	for row := 0; row < n; row++ {
		if len(slotOwner) < s.Cap {
			slotOwner = append(slotOwner, int32(row))
		} else if j := rng.intn(int64(row) + 1); j < int64(s.Cap) {
			slotOwner[j] = int32(row)
		}
		if stratOn {
			lab := labels[row]
			if lab != lab {
				continue
			}
			bits := math.Float32bits(lab)
			idx, ok := strataByBits[bits]
			if !ok {
				if len(strata) >= cfg.MaxStrata {
					s.StrataOverflow = true
					strata, strataByBits = nil, nil
					stratOn = false
					mb.strIdx, mb.strSlot = nil, nil
					continue
				}
				idx = len(strata)
				strata = append(strata, stratState{key: lab})
				strataByBits[bits] = idx
			}
			st := &strata[idx]
			if len(st.owners) < cfg.StratumCap {
				st.owners = append(st.owners, int32(row))
			} else if j := rng.intn(st.count + 1); j < int64(cfg.StratumCap) {
				st.owners[j] = int32(row)
			}
			st.count++
		}
	}
	s.RNGState = rng.s
	s.Seen = int64(n)

	// Invert slot ownership into per-row plans and allocate the sample.
	for i := range mb.plan {
		mb.plan[i] = -1
	}
	s.RowIDs = make([]int64, len(slotOwner))
	s.Data = make([]float32, len(slotOwner)*c)
	for slot, row := range slotOwner {
		mb.plan[row] = int32(slot)
		s.RowIDs[slot] = int64(row)
	}
	if mb.strIdx != nil {
		for i := range mb.strIdx {
			mb.strIdx[i], mb.strSlot[i] = -1, -1
		}
		s.Strata = make([]Stratum, len(strata))
		for si, st := range strata {
			s.Strata[si] = Stratum{
				Key:    st.key,
				Count:  st.count,
				RowIDs: make([]int64, len(st.owners)),
				Data:   make([]float32, len(st.owners)*c),
			}
			for slot, row := range st.owners {
				mb.strIdx[row] = int32(si)
				mb.strSlot[row] = int32(slot)
				s.Strata[si].RowIDs[slot] = int64(row)
			}
		}
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
		if mb.strIdx != nil {
			if si := mb.strIdx[row]; si >= 0 {
				s.Strata[si].Data[int(mb.strSlot[row])*c+j] = v
			}
		}
	}
	s.Stats[j] = st
}

// Finish returns the completed sample. The builder must not be used
// afterwards.
func (mb *MatrixBuilder) Finish() *Sample { return mb.s }
