package experiments

import (
	"fmt"
	"math/rand"
	"os"

	"mistique/internal/colstore"
)

// Fig14 reproduces the column-compression microbenchmark: a matrix of
// float32 columns with controlled cross-column similarity (0 = all
// independent, 0.5 = half the values shared with a base column, 1 = all
// identical), stored with similarity-based co-location vs scattered
// round-robin placement. Co-location lets the partition compressor exploit
// the redundancy; scattering destroys it.
func Fig14(o Options) (*Table, error) {
	o = o.withDefaults()
	// Scaled from the paper's 100K x 100; ratios are what matter. Rows are
	// sized so one column (4*rows bytes) fits inside gzip's 32 KiB match
	// window — the same constraint that makes the paper co-locate similar
	// ColumnChunks within a partition rather than merely on the same disk.
	rows, cols := 4096, 96

	t := &Table{
		ID:     "Fig14",
		Title:  fmt.Sprintf("Column compression microbenchmark (%dx%d float32)", rows, cols),
		Header: []string{"similarity", "co-located (LSH)", "scattered", "benefit"},
	}

	for _, sim := range []float64{0, 0.5, 1} {
		mkCols := func() [][]float32 {
			rng := rand.New(rand.NewSource(o.Seed + int64(sim*1000)))
			base := make([]float32, rows)
			for i := range base {
				base[i] = rng.Float32() * 100
			}
			out := make([][]float32, cols)
			// A fraction sim of every column is identical across columns
			// (the paper's "0.5: 50% of values are identical"). Shared
			// values arrive in contiguous runs, as they do in real
			// intermediates where pipelines copy column segments wholesale;
			// the run positions are fixed per similarity level so the
			// sharing is cross-column, not merely column-vs-base.
			const seg = 64
			shared := make([]bool, (rows+seg-1)/seg)
			for i := range shared {
				shared[i] = rng.Float64() < sim
			}
			for j := range out {
				col := make([]float32, rows)
				for si := range shared {
					start := si * seg
					end := min(start+seg, rows)
					if shared[si] {
						copy(col[start:end], base[start:end])
					} else {
						for i := start; i < end; i++ {
							col[i] = rng.Float32() * 100
						}
					}
				}
				if sim == 1 {
					copy(col, base)
				}
				out[j] = col
			}
			return out
		}

		measure := func(mode colstore.Mode) (int64, error) {
			dir, err := os.MkdirTemp("", "mistique-fig14-*")
			if err != nil {
				return 0, err
			}
			defer os.RemoveAll(dir)
			st, err := colstore.Open(dir, colstore.Config{
				Mode:                mode,
				SimilarityThreshold: 0.15,
				ScatterWays:         16,
				// Disable exact dedup so similarity=1 measures compression,
				// not dedup (the paper's microbenchmark isolates the
				// compressor).
				DisableExactDedup: true,
			})
			if err != nil {
				return 0, err
			}
			for j, col := range mkCols() {
				key := colstore.ColumnKey{Model: "micro", Intermediate: "m", Column: fmt.Sprintf("c%d", j), Block: 0}
				if _, err := st.PutColumn(key, col, nil); err != nil {
					return 0, err
				}
			}
			if err := st.Flush(); err != nil {
				return 0, err
			}
			return st.DiskBytes()
		}

		together, err := measure(colstore.ModeSimilarity)
		if err != nil {
			return nil, err
		}
		scattered, err := measure(colstore.ModeScatter)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.1f", sim), fmtBytes(together), fmtBytes(scattered), speedup(float64(scattered), float64(together)))
	}
	t.Note("paper: footprint shrinks as similarity rises only when similar columns are stored together")
	return t, nil
}
