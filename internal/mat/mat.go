// Package mat provides the dense linear algebra needed by the response
// time controller: vectors, matrices, LU and QR factorizations, ordinary
// and equality-constrained least squares, and a small active-set solver
// for box-constrained quadratic programs.
//
// The package is self-contained (stdlib only) and tuned for the small,
// well-conditioned systems that arise in MPC for multi-tier applications:
// tens of unknowns, not thousands. All operations are deterministic.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Vec is a dense column vector.
type Vec []float64

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	w := make(Vec, len(v))
	copy(w, v)
	return w
}

// Dot returns the inner product of v and w. It panics if lengths differ.
func (v Vec) Dot(w Vec) float64 {
	if len(v) != len(w) {
		//lint:ignore panicpolicy dimension mismatch is a programming error, like an out-of-range index
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	s := 0.0
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Norm returns the Euclidean norm of v.
func (v Vec) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// AddScaled sets v = v + a*w in place and returns v.
func (v Vec) AddScaled(a float64, w Vec) Vec {
	if len(v) != len(w) {
		//lint:ignore panicpolicy dimension mismatch is a programming error, like an out-of-range index
		panic("mat: AddScaled length mismatch")
	}
	for i := range v {
		v[i] += a * w[i]
	}
	return v
}

// Scale multiplies every element of v by a in place and returns v.
func (v Vec) Scale(a float64) Vec {
	for i := range v {
		v[i] *= a
	}
	return v
}

// Sub returns v - w as a new vector.
func (v Vec) Sub(w Vec) Vec {
	if len(v) != len(w) {
		//lint:ignore panicpolicy dimension mismatch is a programming error, like an out-of-range index
		panic("mat: Sub length mismatch")
	}
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Add returns v + w as a new vector.
func (v Vec) Add(w Vec) Vec {
	if len(v) != len(w) {
		//lint:ignore panicpolicy dimension mismatch is a programming error, like an out-of-range index
		panic("mat: Add length mismatch")
	}
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Max returns the largest element of v. It panics on an empty vector.
func (v Vec) Max() float64 {
	if len(v) == 0 {
		//lint:ignore panicpolicy precondition: Max of nothing has no answer; caller must check
		panic("mat: Max of empty vector")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMat returns a zero Rows×Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		//lint:ignore panicpolicy precondition: a negative dimension is a programming error
		panic("mat: negative dimension")
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices. All rows must share a length.
func FromRows(rows [][]float64) *Mat {
	if len(rows) == 0 {
		return NewMat(0, 0)
	}
	m := NewMat(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			//lint:ignore panicpolicy precondition: ragged rows are a programming error
			panic("mat: FromRows ragged input")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Row returns row i as a vector sharing no storage with m.
func (m *Mat) Row(i int) Vec {
	out := make(Vec, m.Cols)
	copy(out, m.Data[i*m.Cols:(i+1)*m.Cols])
	return out
}

// Col returns column j as a new vector.
func (m *Mat) Col(j int) Vec {
	out := make(Vec, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

// SetRow copies v into row i.
func (m *Mat) SetRow(i int, v Vec) {
	if len(v) != m.Cols {
		//lint:ignore panicpolicy dimension mismatch is a programming error, like an out-of-range index
		panic("mat: SetRow length mismatch")
	}
	copy(m.Data[i*m.Cols:(i+1)*m.Cols], v)
}

// T returns the transpose of m as a new matrix.
func (m *Mat) T() *Mat {
	t := NewMat(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns m·b as a new matrix. It panics on a dimension mismatch.
func (m *Mat) Mul(b *Mat) *Mat {
	if m.Cols != b.Rows {
		//lint:ignore panicpolicy dimension mismatch is a programming error, like an out-of-range index
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d · %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMat(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			//lint:ignore floatcompare exact-zero sparsity fast path; any nonzero must multiply
			if a == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += a * b.At(k, j)
			}
		}
	}
	return out
}

// MulVec returns m·v as a new vector.
func (m *Mat) MulVec(v Vec) Vec {
	return m.MulVecInto(make(Vec, m.Rows), v)
}

// MulVecInto sets out (length Rows) to m·v and returns out. out must not
// alias v.
func (m *Mat) MulVecInto(out Vec, v Vec) Vec {
	if m.Cols != len(v) || len(out) != m.Rows {
		//lint:ignore panicpolicy dimension mismatch is a programming error, like an out-of-range index
		panic(fmt.Sprintf("mat: MulVecInto dimension mismatch %dx%d · %d into %d", m.Rows, m.Cols, len(v), len(out)))
	}
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range row {
			s += x * v[j]
		}
		out[i] = s
	}
	return out
}

// MulTVecInto sets out (length Cols) to mᵀ·v and returns out. Column
// sums accumulate in the same ascending-row order as m.T().MulVec(v),
// so the results are bitwise identical. out must not alias v.
func (m *Mat) MulTVecInto(out Vec, v Vec) Vec {
	if m.Rows != len(v) || len(out) != m.Cols {
		//lint:ignore panicpolicy dimension mismatch is a programming error, like an out-of-range index
		panic(fmt.Sprintf("mat: MulTVecInto dimension mismatch %dx%d ᵀ· %d into %d", m.Rows, m.Cols, len(v), len(out)))
	}
	for j := 0; j < m.Cols; j++ {
		s := 0.0
		for k := 0; k < m.Rows; k++ {
			s += m.Data[k*m.Cols+j] * v[k]
		}
		out[j] = s
	}
	return out
}

// ATAInto sets out (Cols×Cols) to mᵀ·m without materializing the
// transpose. Each entry accumulates over rows in ascending order, the
// same order as m.T().Mul(m), so for finite inputs the results are
// bitwise identical. out must not alias m.
func (m *Mat) ATAInto(out *Mat) *Mat {
	n := m.Cols
	if out.Rows != n || out.Cols != n {
		//lint:ignore panicpolicy dimension mismatch is a programming error, like an out-of-range index
		panic(fmt.Sprintf("mat: ATAInto wants %dx%d output, got %dx%d", n, n, out.Rows, out.Cols))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < m.Rows; k++ {
				s += m.Data[k*n+i] * m.Data[k*n+j]
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

// RowDot returns the dot product of row i with v without materializing
// the row, matching m.Row(i).Dot(v) bitwise.
func (m *Mat) RowDot(i int, v Vec) float64 {
	row := m.Data[i*m.Cols : (i+1)*m.Cols]
	if len(v) != len(row) {
		//lint:ignore panicpolicy dimension mismatch is a programming error, like an out-of-range index
		panic("mat: RowDot length mismatch")
	}
	s := 0.0
	for j, x := range row {
		s += x * v[j]
	}
	return s
}

// Add returns m + b as a new matrix.
func (m *Mat) Add(b *Mat) *Mat {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		//lint:ignore panicpolicy dimension mismatch is a programming error, like an out-of-range index
		panic("mat: Add dimension mismatch")
	}
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] += b.Data[i]
	}
	return out
}

// Scale returns a·m as a new matrix.
func (m *Mat) Scale(a float64) *Mat {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= a
	}
	return out
}

// String renders the matrix for debugging.
func (m *Mat) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%9.4g", m.At(i, j))
		}
		b.WriteString("]\n")
	}
	return b.String()
}
