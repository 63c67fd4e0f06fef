package sample

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refRank is the rank order by a plain comparator sort: the column's
// finite sampled values ascending (−0 == +0), ties by ascending row id.
func refRank(s *Sample, col int) (vals []float32, idx []int32) {
	c := len(s.Cols)
	for r := range s.RowIDs {
		if v := s.Data[r*c+col]; v == v && !math.IsInf(float64(v), 0) {
			idx = append(idx, int32(r))
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		va, vb := s.Data[int(idx[a])*c+col], s.Data[int(idx[b])*c+col]
		if va != vb {
			return va < vb
		}
		return s.RowIDs[idx[a]] < s.RowIDs[idx[b]]
	})
	for _, r := range idx {
		vals = append(vals, s.Data[int(r)*c+col])
	}
	return vals, idx
}

// awkwardValue draws NaN, ±Inf, ±0, quantized ties or plain values.
func awkwardValue(rng *rand.Rand) float32 {
	switch rng.Intn(12) {
	case 0:
		return float32(math.NaN())
	case 1:
		return float32(math.Inf(1))
	case 2:
		return float32(math.Inf(-1))
	case 3:
		return 0
	case 4:
		return float32(math.Copysign(0, -1))
	case 5, 6, 7, 8:
		return float32(rng.Intn(9)-4) * 0.5 // heavy ties
	default:
		return rng.Float32()*2e3 - 1e3
	}
}

// checkRanks compares every column's memo (probing only some columns, so
// others go several batches stale before their patch), the row-id order
// and the moments against from-scratch computations, bit for bit.
func checkRanks(t *testing.T, b *Builder, rng *rand.Rand, step string) {
	t.Helper()
	b.View(func(s *Sample) {
		for col := range s.Cols {
			if rng.Intn(3) == 0 {
				continue
			}
			gotV, gotI := s.rank(col)
			wantV, wantI := refRank(s, col)
			if len(gotV) != len(wantV) || len(gotI) != len(wantI) {
				t.Fatalf("%s col %d: %d/%d ranked values, want %d", step, col, len(gotV), len(gotI), len(wantV))
			}
			for i := range wantV {
				if math.Float32bits(gotV[i]) != math.Float32bits(wantV[i]) || gotI[i] != wantI[i] {
					t.Fatalf("%s col %d pos %d: got (%v, slot %d), want (%v, slot %d)", step, col, i, gotV[i], gotI[i], wantV[i], wantI[i])
				}
			}
			mean, std, k := s.Moments(col)
			wm, ws, wk := s.colMoments(col)
			if math.Float64bits(mean) != math.Float64bits(wm) || math.Float64bits(std) != math.Float64bits(ws) || k != wk {
				t.Fatalf("%s col %d: moments (%v, %v, %d), want (%v, %v, %d)", step, col, mean, std, k, wm, ws, wk)
			}
		}
		order := s.RowOrder()
		if len(order) != len(s.RowIDs) {
			t.Fatalf("%s: row order has %d slots, want %d", step, len(order), len(s.RowIDs))
		}
		seen := make([]bool, len(order))
		for i, sr := range order {
			if seen[sr] || (i > 0 && s.RowIDs[order[i-1]] >= s.RowIDs[sr]) {
				t.Fatalf("%s: row order not a strictly ascending permutation at %d", step, i)
			}
			seen[sr] = true
		}
	})
}

func TestRankPatchMatchesFullSort(t *testing.T) {
	cases := []struct {
		name           string
		cap, batch, nb int
		resumeAt       int // batch after which the builder is encoded, decoded and resumed; 0: never
	}{
		{name: "fills then replaces", cap: 512, batch: 100, nb: 60},
		{name: "cap below batch", cap: 64, batch: 300, nb: 30},
		{name: "partly filled", cap: 4096, batch: 70, nb: 40},
		{name: "resumed from MQSM", cap: 256, batch: 50, nb: 60, resumeAt: 20},
	}
	const cols = 4
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + ci)))
			b := NewBuilder([]string{"a", "b", "c", "d"}, Config{Cap: tc.cap})
			for i := 1; i <= tc.nb; i++ {
				rows := make([][]float32, tc.batch)
				for r := range rows {
					rows[r] = make([]float32, cols)
					for j := range rows[r] {
						rows[r][j] = awkwardValue(rng)
					}
				}
				if err := b.AddRows(rows); err != nil {
					t.Fatal(err)
				}
				checkRanks(t, b, rng, tc.name)
				if i == tc.resumeAt {
					_, _, dec, err := Decode(Encode("m", "i", b.Snapshot()))
					if err != nil {
						t.Fatal(err)
					}
					b = Resume(dec)
					checkRanks(t, b, rng, tc.name+" (resumed)")
				}
			}
			if b.Seen() != int64(tc.nb*tc.batch) {
				t.Fatalf("Seen = %d, want %d", b.Seen(), tc.nb*tc.batch)
			}
		})
	}
}

func TestAddRowsIsAllOrNothing(t *testing.T) {
	b := NewBuilder([]string{"a", "b"}, Config{Cap: 8})
	if err := b.AddRows([][]float32{{1, 2}, {3}}); err == nil {
		t.Fatal("batch with a short row accepted")
	}
	if b.Seen() != 0 {
		t.Fatalf("a rejected batch added %d rows", b.Seen())
	}
	if err := b.AddRows([][]float32{{1, 2}, {3, 4}}); err != nil || b.Seen() != 2 {
		t.Fatalf("Seen = %d, err %v", b.Seen(), err)
	}
}
