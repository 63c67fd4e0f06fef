package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMat(rng *rand.Rand, r, c int) *Mat {
	m := NewMat(r, c)
	for i := range m.A {
		m.A[i] = rng.NormFloat64()
	}
	return m
}

func maxAbsDiff(a, b *Mat) float64 {
	var mx float64
	for i := range a.A {
		if d := math.Abs(a.A[i] - b.A[i]); d > mx {
			mx = d
		}
	}
	return mx
}

// fromRows builds a matrix from equal-length rows.
func fromRows(rows [][]float64) *Mat {
	m := NewMat(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

func TestMulAndTranspose(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	b := fromRows([][]float64{{1, 0}, {0, 1}})
	if maxAbsDiff(a.Mul(b), a) != 0 {
		t.Fatal("identity mul")
	}
	at := a.T()
	if at.R != 2 || at.C != 3 || at.At(0, 2) != 5 {
		t.Fatalf("transpose: %+v", at)
	}
}

func TestQRReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		r := 3 + rng.Intn(20)
		c := 1 + rng.Intn(r)
		m := randMat(rng, r, c)
		q, rr := m.QR()
		back := q.Mul(rr)
		if d := maxAbsDiff(back, m); d > 1e-9 {
			t.Fatalf("trial %d: QR reconstruction error %g", trial, d)
		}
		// Q columns orthonormal.
		qtq := q.T().Mul(q)
		for i := 0; i < c; i++ {
			for j := 0; j < c; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(qtq.At(i, j)-want) > 1e-9 {
					t.Fatalf("QtQ[%d,%d]=%g", i, j, qtq.At(i, j))
				}
			}
		}
		// R upper triangular.
		for i := 1; i < c; i++ {
			for j := 0; j < i; j++ {
				if rr.At(i, j) != 0 {
					t.Fatalf("R[%d,%d]=%g not zero", i, j, rr.At(i, j))
				}
			}
		}
	}
}

func TestSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		r := 4 + rng.Intn(30)
		c := 1 + rng.Intn(10)
		if c > r {
			c = r
		}
		m := randMat(rng, r, c)
		u, s, v := m.SVD()
		// Rebuild U diag(s) V^T.
		us := u.Clone()
		for i := 0; i < us.R; i++ {
			for j := 0; j < us.C; j++ {
				us.Set(i, j, us.At(i, j)*s[j])
			}
		}
		back := us.Mul(v.T())
		if d := maxAbsDiff(back, m); d > 1e-8 {
			t.Fatalf("trial %d: SVD reconstruction error %g", trial, d)
		}
		// s sorted decreasing and nonnegative.
		for i := 1; i < len(s); i++ {
			if s[i] > s[i-1]+1e-12 || s[i] < 0 {
				t.Fatalf("singular values not sorted: %v", s)
			}
		}
	}
}

func TestSVDRankDeficient(t *testing.T) {
	// Second column is 2x the first: rank 1.
	m := fromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	_, s, _ := m.SVD()
	if s[1] > 1e-10 {
		t.Fatalf("expected zero second singular value, got %v", s)
	}
	want := math.Sqrt(1 + 4 + 9 + 4 + 16 + 36) // Frobenius norm of rank-1
	if math.Abs(s[0]-want) > 1e-10 {
		t.Fatalf("s[0]=%g want %g", s[0], want)
	}
}

func TestTruncateEnergy(t *testing.T) {
	s := []float64{10, 3, 1, 0.1}
	if k := TruncateEnergy(s, 0.99); k != 2 {
		t.Fatalf("TruncateEnergy(0.99) = %d, want 2", k)
	}
	if k := TruncateEnergy(s, 1.0); k != 4 {
		t.Fatalf("TruncateEnergy(1.0) = %d, want 4", k)
	}
	if k := TruncateEnergy(nil, 0.9); k != 0 {
		t.Fatalf("TruncateEnergy(nil) = %d", k)
	}
}

func TestCCAIdenticalSubspaces(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randMat(rng, 100, 5)
	// y is an invertible linear transform of x: all correlations must be 1.
	w := randMat(rng, 5, 5)
	for i := 0; i < 5; i++ {
		w.Set(i, i, w.At(i, i)+3) // diagonally dominant => invertible
	}
	y := x.Mul(w)
	cors := CCA(x, y)
	if len(cors) != 5 {
		t.Fatalf("got %d correlations", len(cors))
	}
	for _, c := range cors {
		if c < 0.999 {
			t.Fatalf("expected perfect correlation, got %v", cors)
		}
	}
}

func TestCCAIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randMat(rng, 2000, 3)
	y := randMat(rng, 2000, 3)
	cors := CCA(x, y)
	if m := Mean(cors); m > 0.2 {
		t.Fatalf("independent data should have low canonical correlation, mean=%g (%v)", m, cors)
	}
}

func TestCCABounds(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(50)
		x := randMat(rng, n, 1+rng.Intn(4))
		y := randMat(rng, n, 1+rng.Intn(4))
		for _, c := range CCA(x, y) {
			if c < 0 || c > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPearson(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if p := Pearson(a, a); math.Abs(p-1) > 1e-12 {
		t.Fatalf("self correlation %g", p)
	}
	b := []float64{4, 3, 2, 1}
	if p := Pearson(a, b); math.Abs(p+1) > 1e-12 {
		t.Fatalf("anti correlation %g", p)
	}
	if p := Pearson(a, []float64{5, 5, 5, 5}); p != 0 {
		t.Fatalf("constant correlation %g", p)
	}
}

func BenchmarkSVD50x20(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m := randMat(rng, 50, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SVD()
	}
}
