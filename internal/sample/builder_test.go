package sample

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestStreamMatchesBatch(t *testing.T) {
	// The same rows through a streaming Builder and a MatrixBuilder must
	// produce byte-identical samples — the plan replays the same decision
	// sequence.
	rng := rand.New(rand.NewSource(5))
	const n, c = 7000, 3
	rows := make([][]float32, n)
	colL := make([]float32, n)
	colA := make([]float32, n)
	colB := make([]float32, n)
	for i := range rows {
		colL[i] = float32(rng.Intn(4))
		colA[i] = rng.Float32()
		colB[i] = float32(rng.NormFloat64())
		rows[i] = []float32{colL[i], colA[i], colB[i]}
	}
	cfg := Config{Cap: 512}

	b := NewBuilder([]string{"label", "a", "b"}, cfg)
	for _, r := range rows {
		if err := b.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	stream := b.Snapshot()

	mb := NewMatrixBuilder([]string{"label", "a", "b"}, n, cfg)
	mb.SetColumn(0, colL)
	mb.SetColumn(1, colA)
	mb.SetColumn(2, colB)
	batch := mb.Finish()

	if !reflect.DeepEqual(stream, batch) {
		t.Fatalf("stream and batch samples diverge:\nstream: seen=%d k=%d rng=%x\nbatch:  seen=%d k=%d rng=%x",
			stream.Seen, stream.Rows(), stream.RNGState,
			batch.Seen, batch.Rows(), batch.RNGState)
	}
}

func TestResumeContinuesSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 5000
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = []float32{float32(rng.Intn(3)), rng.Float32()}
	}
	cfg := Config{Cap: 256}
	cols := []string{"y", "x"}

	whole := NewBuilder(cols, cfg)
	for _, r := range rows {
		whole.Add(r)
	}

	// Same stream, snapshotted and resumed mid-way (the crash/replay path).
	first := NewBuilder(cols, cfg)
	for _, r := range rows[:n/3] {
		first.Add(r)
	}
	snap := first.Snapshot()
	resumed := Resume(snap)
	if resumed.Seen() != int64(n/3) {
		t.Fatalf("resumed Seen = %d", resumed.Seen())
	}
	for _, r := range rows[n/3:] {
		resumed.Add(r)
	}
	if !reflect.DeepEqual(whole.Snapshot(), resumed.Snapshot()) {
		t.Fatal("resumed builder diverged from uninterrupted one")
	}
	// The snapshot Resume started from is left as it was.
	if snap.Seen != int64(n/3) || !reflect.DeepEqual(snap, first.Snapshot()) {
		t.Fatalf("Resume mutated its input: seen %d", snap.Seen)
	}
}

func TestBuilderRejectsBadRow(t *testing.T) {
	b := NewBuilder([]string{"a", "b"}, Config{Cap: 4})
	if err := b.Add([]float32{1}); err == nil {
		t.Fatal("short row accepted")
	}
	if err := b.Add([]float32{1, 2}); err != nil {
		t.Fatal(err)
	}
	if b.Seen() != 1 {
		t.Fatalf("Seen = %d", b.Seen())
	}
}

// seededBuilder starts an empty reservoir whose row selection runs from
// rngState instead of the package seed.
func seededBuilder(cols []string, cap int, rngState uint64) *Builder {
	s := newSample(cols, Config{Cap: cap})
	s.RNGState = rngState
	return Resume(s)
}

func TestReservoirIsUnbiased(t *testing.T) {
	// Over many RNG states, each row's inclusion frequency should be close
	// to cap/n — a loose sanity check that Algorithm R is wired right.
	const n, cap, trials = 200, 50, 400
	hits := make([]int, n)
	for trial := uint64(1); trial <= trials; trial++ {
		b := seededBuilder([]string{"c0"}, cap, trial)
		for i := 0; i < n; i++ {
			b.Add([]float32{0})
		}
		for _, id := range b.Snapshot().RowIDs {
			hits[id]++
		}
	}
	want := float64(cap) / float64(n) * trials // = 100
	for i, h := range hits {
		if float64(h) < want*0.6 || float64(h) > want*1.4 {
			t.Fatalf("row %d sampled %d times, want ≈%.0f", i, h, want)
		}
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	b := NewBuilder([]string{"y", "x"}, Config{Cap: 8})
	for i := 0; i < 20; i++ {
		b.Add([]float32{float32(i % 2), float32(i)})
	}
	snap := b.Snapshot()
	before := append([]float32(nil), snap.Data...)
	for i := 20; i < 200; i++ {
		b.Add([]float32{float32(i % 2), float32(i)})
	}
	if !reflect.DeepEqual(before, snap.Data) {
		t.Fatal("snapshot mutated by later Adds")
	}
}
