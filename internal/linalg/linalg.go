// Package linalg implements the dense float64 linear algebra the diagnostic
// techniques need: Householder QR, one-sided Jacobi SVD, and canonical
// correlation analysis (CCA). SVCCA (Raghu et al., used by the paper as a
// flagship MCMR diagnostic query) is SVD -> subspace projection -> CCA, and
// all three stages run on these routines.
package linalg

import (
	"fmt"
	"math"
)

// Mat is a dense row-major float64 matrix.
type Mat struct {
	R, C int
	A    []float64
}

// NewMat allocates a zeroed r x c matrix.
func NewMat(r, c int) *Mat {
	return &Mat{R: r, C: c, A: make([]float64, r*c)}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.A[i*m.C+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.A[i*m.C+j] = v }

// Row returns row i aliasing the matrix storage.
func (m *Mat) Row(i int) []float64 { return m.A[i*m.C : (i+1)*m.C] }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.R, m.C)
	copy(c.A, m.A)
	return c
}

// Mul returns m * o.
func (m *Mat) Mul(o *Mat) *Mat {
	if m.C != o.R {
		panic(fmt.Sprintf("linalg: mul %dx%d * %dx%d", m.R, m.C, o.R, o.C))
	}
	out := NewMat(m.R, o.C)
	for i := 0; i < m.R; i++ {
		mRow := m.Row(i)
		oRow := out.Row(i)
		for k := 0; k < m.C; k++ {
			a := mRow[k]
			if a == 0 {
				continue
			}
			bRow := o.A[k*o.C : (k+1)*o.C]
			for j, b := range bRow {
				oRow[j] += a * b
			}
		}
	}
	return out
}

// T returns the transpose.
func (m *Mat) T() *Mat {
	t := NewMat(m.C, m.R)
	for i := 0; i < m.R; i++ {
		for j, v := range m.Row(i) {
			t.A[j*t.C+i] = v
		}
	}
	return t
}

// CenterColumns subtracts the column mean from every column in place and
// returns the means.
func (m *Mat) CenterColumns() []float64 {
	means := make([]float64, m.C)
	if m.R == 0 {
		return means
	}
	for i := 0; i < m.R; i++ {
		for j, v := range m.Row(i) {
			means[j] += v
		}
	}
	for j := range means {
		means[j] /= float64(m.R)
	}
	for i := 0; i < m.R; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] -= means[j]
		}
	}
	return means
}

// QR computes the thin QR decomposition of m (R' x C, R' >= C) via
// Householder reflections: m = Q * R with Q (R' x C) having orthonormal
// columns and R (C x C) upper triangular.
func (m *Mat) QR() (q, r *Mat) {
	rows, cols := m.R, m.C
	if rows < cols {
		panic("linalg: QR requires rows >= cols")
	}
	a := m.Clone()
	// vs[k] holds the k-th Householder vector (length rows-k).
	vs := make([][]float64, cols)
	for k := 0; k < cols; k++ {
		// Compute the norm of the k-th column below the diagonal.
		var norm float64
		for i := k; i < rows; i++ {
			norm += a.At(i, k) * a.At(i, k)
		}
		norm = math.Sqrt(norm)
		v := make([]float64, rows-k)
		for i := k; i < rows; i++ {
			v[i-k] = a.At(i, k)
		}
		if norm != 0 {
			if v[0] >= 0 {
				v[0] += norm
			} else {
				v[0] -= norm
			}
		}
		var vnorm float64
		for _, x := range v {
			vnorm += x * x
		}
		if vnorm > 0 {
			inv := 1 / math.Sqrt(vnorm)
			for i := range v {
				v[i] *= inv
			}
			// Apply H = I - 2 v v^T to the trailing submatrix.
			for j := k; j < cols; j++ {
				var dot float64
				for i := k; i < rows; i++ {
					dot += v[i-k] * a.At(i, j)
				}
				dot *= 2
				for i := k; i < rows; i++ {
					a.Set(i, j, a.At(i, j)-dot*v[i-k])
				}
			}
		}
		vs[k] = v
	}
	r = NewMat(cols, cols)
	for i := 0; i < cols; i++ {
		for j := i; j < cols; j++ {
			r.Set(i, j, a.At(i, j))
		}
	}
	// Form thin Q by applying the reflectors to the first cols columns of I.
	q = NewMat(rows, cols)
	for j := 0; j < cols; j++ {
		q.Set(j, j, 1)
	}
	for k := cols - 1; k >= 0; k-- {
		v := vs[k]
		for j := 0; j < cols; j++ {
			var dot float64
			for i := k; i < rows; i++ {
				dot += v[i-k] * q.At(i, j)
			}
			dot *= 2
			for i := k; i < rows; i++ {
				q.Set(i, j, q.At(i, j)-dot*v[i-k])
			}
		}
	}
	return q, r
}

// SVD computes the thin singular value decomposition m = U diag(s) V^T using
// the one-sided Jacobi method. U is R x C with orthonormal columns (for zero
// singular values the corresponding U column is zero), V is C x C, and s is
// sorted in decreasing order. Requires R >= C.
func (m *Mat) SVD() (u *Mat, s []float64, v *Mat) {
	rows, cols := m.R, m.C
	if rows < cols {
		panic("linalg: SVD requires rows >= cols (transpose first)")
	}
	a := m.Clone()
	v = NewMat(cols, cols)
	for i := 0; i < cols; i++ {
		v.Set(i, i, 1)
	}
	const tol = 1e-12
	for sweep := 0; sweep < 60; sweep++ {
		off := 0.0
		for p := 0; p < cols-1; p++ {
			for q := p + 1; q < cols; q++ {
				// Compute the 2x2 Gram entries for columns p, q.
				var app, aqq, apq float64
				for i := 0; i < rows; i++ {
					x := a.At(i, p)
					y := a.At(i, q)
					app += x * x
					aqq += y * y
					apq += x * y
				}
				if math.Abs(apq) <= tol*math.Sqrt(app*aqq) {
					continue
				}
				off += apq * apq
				// Jacobi rotation zeroing the off-diagonal Gram entry.
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				sn := c * t
				for i := 0; i < rows; i++ {
					x := a.At(i, p)
					y := a.At(i, q)
					a.Set(i, p, c*x-sn*y)
					a.Set(i, q, sn*x+c*y)
				}
				for i := 0; i < cols; i++ {
					x := v.At(i, p)
					y := v.At(i, q)
					v.Set(i, p, c*x-sn*y)
					v.Set(i, q, sn*x+c*y)
				}
			}
		}
		if off == 0 {
			break
		}
	}
	// Singular values are column norms of the rotated A; U columns are the
	// normalized columns.
	s = make([]float64, cols)
	u = NewMat(rows, cols)
	for j := 0; j < cols; j++ {
		var norm float64
		for i := 0; i < rows; i++ {
			norm += a.At(i, j) * a.At(i, j)
		}
		norm = math.Sqrt(norm)
		s[j] = norm
		if norm > 0 {
			inv := 1 / norm
			for i := 0; i < rows; i++ {
				u.Set(i, j, a.At(i, j)*inv)
			}
		}
	}
	// Sort by decreasing singular value (simple selection sort; C is small).
	for i := 0; i < cols; i++ {
		maxJ := i
		for j := i + 1; j < cols; j++ {
			if s[j] > s[maxJ] {
				maxJ = j
			}
		}
		if maxJ != i {
			s[i], s[maxJ] = s[maxJ], s[i]
			swapCols(u, i, maxJ)
			swapCols(v, i, maxJ)
		}
	}
	return u, s, v
}

func swapCols(m *Mat, a, b int) {
	for i := 0; i < m.R; i++ {
		m.A[i*m.C+a], m.A[i*m.C+b] = m.A[i*m.C+b], m.A[i*m.C+a]
	}
}

// TruncateEnergy returns the smallest k such that the first k singular
// values capture at least frac of the total squared energy.
func TruncateEnergy(s []float64, frac float64) int {
	var total float64
	for _, x := range s {
		total += x * x
	}
	if total == 0 {
		return 0
	}
	var acc float64
	for k, x := range s {
		acc += x * x
		if acc >= frac*total {
			return k + 1
		}
	}
	return len(s)
}

// CCA computes the canonical correlations between the column spaces of the
// centered matrices x (n x p) and y (n x q). It uses the QR-based method:
// correlations are the singular values of Qx^T Qy, clamped to [0, 1].
// Returns min(p, q, effective ranks) correlations in decreasing order.
func CCA(x, y *Mat) []float64 {
	if x.R != y.R {
		panic("linalg: CCA row mismatch")
	}
	xc := x.Clone()
	yc := y.Clone()
	xc.CenterColumns()
	yc.CenterColumns()
	qx, rx := xc.QR()
	qy, ry := yc.QR()
	// Drop rank-deficient directions: a tiny diagonal in R means the
	// corresponding Q column is numerical noise.
	qx = dropDeficient(qx, rx)
	qy = dropDeficient(qy, ry)
	if qx.C == 0 || qy.C == 0 {
		return nil
	}
	prod := qx.T().Mul(qy)
	if prod.R < prod.C {
		prod = prod.T()
	}
	_, s, _ := prod.SVD()
	k := min(qx.C, qy.C, len(s))
	out := make([]float64, k)
	for i := 0; i < k; i++ {
		c := s[i]
		if c > 1 {
			c = 1
		}
		if c < 0 {
			c = 0
		}
		out[i] = c
	}
	return out
}

func dropDeficient(q, r *Mat) *Mat {
	var maxDiag float64
	for i := 0; i < r.C; i++ {
		if d := math.Abs(r.At(i, i)); d > maxDiag {
			maxDiag = d
		}
	}
	keep := make([]int, 0, q.C)
	for i := 0; i < r.C; i++ {
		if math.Abs(r.At(i, i)) > 1e-10*maxDiag && maxDiag > 0 {
			keep = append(keep, i)
		}
	}
	if len(keep) == q.C {
		return q
	}
	out := NewMat(q.R, len(keep))
	for i := 0; i < q.R; i++ {
		for k, j := range keep {
			out.Set(i, k, q.At(i, j))
		}
	}
	return out
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Pearson returns the Pearson correlation coefficient between a and b.
func Pearson(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		panic("linalg: Pearson length mismatch")
	}
	ma, mb := Mean(a), Mean(b)
	var cov, va, vb float64
	for i := range a {
		da := a[i] - ma
		db := b[i] - mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}
