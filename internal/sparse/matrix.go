// Package sparse implements the sparse linear algebra needed by the
// quadratic (bound-to-bound) initial placement: a coordinate-list builder, a
// compressed-sparse-row matrix, dense vector kernels, and a
// Jacobi-preconditioned conjugate-gradient solver for symmetric positive
// definite systems.
package sparse

import (
	"fmt"
	"math"
	"sort"
)

// Triplet is one (row, col, value) entry in a matrix under construction.
type Triplet struct {
	Row, Col int
	Val      float64
}

// Builder accumulates triplets (duplicates allowed; they sum) and compiles
// them into a CSR matrix.
type Builder struct {
	n       int
	entries []Triplet
}

// NewBuilder returns a builder for an n×n matrix.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// Add accumulates v at (row, col). Out-of-range indices panic: they are
// programming errors in system assembly.
func (b *Builder) Add(row, col int, v float64) {
	if row < 0 || row >= b.n || col < 0 || col >= b.n {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range for n=%d", row, col, b.n))
	}
	if v == 0 {
		return
	}
	b.entries = append(b.entries, Triplet{row, col, v})
}

// AddSym accumulates the symmetric 2x2 stencil of a spring between i and j
// with stiffness w: +w on both diagonals, -w on both off-diagonals. This is
// the building block of quadratic net models.
func (b *Builder) AddSym(i, j int, w float64) {
	b.Add(i, i, w)
	b.Add(j, j, w)
	b.Add(i, j, -w)
	b.Add(j, i, -w)
}

// AddDiag accumulates w on the diagonal at i (a spring to a fixed anchor).
func (b *Builder) AddDiag(i int, w float64) {
	b.Add(i, i, w)
}

// Build compiles the accumulated triplets into a CSR matrix, summing
// duplicates.
func (b *Builder) Build() *CSR {
	sort.Slice(b.entries, func(a, c int) bool {
		ea, ec := b.entries[a], b.entries[c]
		if ea.Row != ec.Row {
			return ea.Row < ec.Row
		}
		return ea.Col < ec.Col
	})
	m := &CSR{
		N:      b.n,
		RowPtr: make([]int, b.n+1),
	}
	for k := 0; k < len(b.entries); {
		e := b.entries[k]
		sum := 0.0
		for k < len(b.entries) && b.entries[k].Row == e.Row && b.entries[k].Col == e.Col {
			sum += b.entries[k].Val
			k++
		}
		if sum != 0 {
			m.Col = append(m.Col, e.Col)
			m.Val = append(m.Val, sum)
			m.RowPtr[e.Row+1]++
		}
	}
	for i := 0; i < b.n; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	N      int
	RowPtr []int // len N+1
	Col    []int
	Val    []float64
}

// MulVec computes dst = m * x. dst and x must have length N and must not
// alias.
func (m *CSR) MulVec(dst, x []float64) {
	if len(dst) != m.N || len(x) != m.N {
		panic("sparse: MulVec dimension mismatch")
	}
	for i := 0; i < m.N; i++ {
		sum := 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			sum += m.Val[k] * x[m.Col[k]]
		}
		dst[i] = sum
	}
}

// Diag extracts the matrix diagonal into dst (length N). Missing diagonal
// entries read as zero.
func (m *CSR) Diag(dst []float64) {
	if len(dst) != m.N {
		panic("sparse: Diag dimension mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < m.N; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.Col[k] == i {
				dst[i] = m.Val[k]
			}
		}
	}
}

// At returns the value at (row, col); zero when not stored.
func (m *CSR) At(row, col int) float64 {
	for k := m.RowPtr[row]; k < m.RowPtr[row+1]; k++ {
		if m.Col[k] == col {
			return m.Val[k]
		}
	}
	return 0
}

// Dot returns the dot product of a and b.
func Dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes dst[i] += alpha*x[i].
func Axpy(dst []float64, alpha float64, x []float64) {
	for i := range dst {
		dst[i] += alpha * x[i]
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}
