// Package tensor implements dense row-major float64 tensors and the linear
// algebra primitives (matmul, im2col, reductions, broadcasting helpers) that
// the neural-network stack in internal/nn is built on.
//
// The package is deliberately self-contained and allocation-conscious: hot
// paths (MatMul, Im2Col) operate on flat slices and accept destination
// tensors where it matters. All randomness is injected via *rand.Rand so that
// training runs are reproducible.
package tensor

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// ErrShape is returned (wrapped) by operations whose operand shapes are
// incompatible.
var ErrShape = errors.New("tensor: shape mismatch")

// Tensor is a dense, row-major, float64 n-dimensional array.
type Tensor struct {
	shape []int
	data  []float64
}

// New creates a zero-filled tensor with the given shape. A zero-dimensional
// tensor (no shape arguments) holds a single scalar element.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic("tensor: negative dimension " + strconv.Itoa(d))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); callers who need isolation should pass a copy.
func FromSlice(data []float64, shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("%w: data length %d does not fit shape %v", ErrShape, len(data), shape)
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}, nil
}

// MustFromSlice is FromSlice for statically known-good inputs; it panics on
// mismatch and is intended for tests and literals.
func MustFromSlice(data []float64, shape ...int) *Tensor {
	t, err := FromSlice(data, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// Full creates a tensor with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Randn fills a new tensor with N(0, std) samples drawn from rng.
func Randn(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = rng.NormFloat64() * std
	}
	return t
}

// RandUniform fills a new tensor with Uniform(lo, hi) samples drawn from rng.
func RandUniform(rng *rand.Rand, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = lo + rng.Float64()*(hi-lo)
	}
	return t
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the backing slice. Mutations are visible to the tensor; this
// is the intended fast path for layer implementations.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	data := make([]float64, len(t.data))
	copy(data, t.data)
	return &Tensor{shape: append([]int(nil), t.shape...), data: data}
}

// Reshape returns a view with a new shape sharing the same backing data.
// One dimension may be -1, in which case it is inferred.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	shape = append([]int(nil), shape...)
	infer := -1
	n := 1
	for i, d := range shape {
		switch {
		case d == -1:
			if infer >= 0 {
				return nil, fmt.Errorf("%w: multiple -1 dims in %v", ErrShape, shape)
			}
			infer = i
		case d < 0:
			return nil, fmt.Errorf("%w: negative dim in %v", ErrShape, shape)
		default:
			n *= d
		}
	}
	if infer >= 0 {
		if n == 0 || len(t.data)%n != 0 {
			return nil, fmt.Errorf("%w: cannot infer dim for %v from %d elements", ErrShape, shape, len(t.data))
		}
		shape[infer] = len(t.data) / n
		n = len(t.data)
	}
	if n != len(t.data) {
		return nil, fmt.Errorf("%w: reshape %v to %v", ErrShape, t.shape, shape)
	}
	return &Tensor{shape: shape, data: t.data}, nil
}

// MustReshape is Reshape that panics on error, for statically valid shapes.
func (t *Tensor) MustReshape(shape ...int) *Tensor {
	r, err := t.Reshape(shape...)
	if err != nil {
		panic(err)
	}
	return r
}

func (t *Tensor) index(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d vs shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.index(idx)] }

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.index(idx)] = v }

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// CopyFrom copies src's data into t. Shapes must have equal sizes.
func (t *Tensor) CopyFrom(src *Tensor) error {
	if len(src.data) != len(t.data) {
		return fmt.Errorf("%w: copy %v into %v", ErrShape, src.shape, t.shape)
	}
	copy(t.data, src.data)
	return nil
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// AddInPlace accumulates o into t elementwise.
func (t *Tensor) AddInPlace(o *Tensor) error {
	if len(t.data) != len(o.data) {
		return fmt.Errorf("%w: %v vs %v", ErrShape, t.shape, o.shape)
	}
	for i, v := range o.data {
		t.data[i] += v
	}
	return nil
}

// AxpyInPlace computes t += alpha*o elementwise.
func (t *Tensor) AxpyInPlace(alpha float64, o *Tensor) error {
	if len(t.data) != len(o.data) {
		return fmt.Errorf("%w: %v vs %v", ErrShape, t.shape, o.shape)
	}
	for i, v := range o.data {
		t.data[i] += alpha * v
	}
	return nil
}

// Scale multiplies every element by alpha, in place, and returns t.
func (t *Tensor) Scale(alpha float64) *Tensor {
	for i := range t.data {
		t.data[i] *= alpha
	}
	return t
}

// Apply returns a new tensor with f applied to every element.
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	out := New(t.shape...)
	for i, v := range t.data {
		out.data[i] = f(v)
	}
	return out
}

// ApplyInPlace applies f to every element in place and returns t.
func (t *Tensor) ApplyInPlace(f func(float64) float64) *Tensor {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
	return t
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// L2Norm returns the Euclidean norm of all elements.
func (t *Tensor) L2Norm() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MatMul computes the matrix product of two rank-2 tensors: [m,k]·[k,n] → [m,n].
func MatMul(a, b *Tensor) (*Tensor, error) {
	if a.Dims() != 2 || b.Dims() != 2 {
		return nil, fmt.Errorf("%w: MatMul needs rank-2 operands, got %v and %v", ErrShape, a.shape, b.shape)
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		return nil, fmt.Errorf("%w: MatMul inner dims %d vs %d", ErrShape, k, k2)
	}
	out := New(m, n)
	matMulInto(out.data, a.data, b.data, m, k, n)
	return out, nil
}

// matMulInto computes dst = A·B with A [m,k], B [k,n], dst [m,n], using an
// ikj loop order that streams B rows for cache friendliness.
func matMulInto(dst, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		di := dst[i*n : (i+1)*n]
		for x := range di {
			di[x] = 0
		}
		ai := a[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			av := ai[p]
			if av == 0 {
				continue
			}
			bp := b[p*n : (p+1)*n]
			for j, bv := range bp {
				di[j] += av * bv
			}
		}
	}
}

// MatMulTransB computes A·Bᵀ for A [m,k] and B [n,k] → [m,n].
func MatMulTransB(a, b *Tensor) (*Tensor, error) {
	if a.Dims() != 2 || b.Dims() != 2 {
		return nil, fmt.Errorf("%w: MatMulTransB needs rank-2 operands", ErrShape)
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		return nil, fmt.Errorf("%w: MatMulTransB inner dims %d vs %d", ErrShape, k, k2)
	}
	out := New(m, n)
	for i := 0; i < m; i++ {
		ai := a.data[i*k : (i+1)*k]
		oi := out.data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := b.data[j*k : (j+1)*k]
			s := 0.0
			for p, av := range ai {
				s += av * bj[p]
			}
			oi[j] = s
		}
	}
	return out, nil
}

// MatMulTransA computes Aᵀ·B for A [k,m] and B [k,n] → [m,n].
func MatMulTransA(a, b *Tensor) (*Tensor, error) {
	if a.Dims() != 2 || b.Dims() != 2 {
		return nil, fmt.Errorf("%w: MatMulTransA needs rank-2 operands", ErrShape)
	}
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		return nil, fmt.Errorf("%w: MatMulTransA inner dims %d vs %d", ErrShape, k, k2)
	}
	out := New(m, n)
	for p := 0; p < k; p++ {
		ap := a.data[p*m : (p+1)*m]
		bp := b.data[p*n : (p+1)*n]
		for i, av := range ap {
			if av == 0 {
				continue
			}
			oi := out.data[i*n : (i+1)*n]
			for j, bv := range bp {
				oi[j] += av * bv
			}
		}
	}
	return out, nil
}

// SoftmaxRows applies a numerically stable softmax to each row of a rank-2
// tensor, returning a new tensor.
func SoftmaxRows(a *Tensor) (*Tensor, error) {
	if a.Dims() != 2 {
		return nil, fmt.Errorf("%w: SoftmaxRows needs rank-2, got %v", ErrShape, a.shape)
	}
	m, n := a.shape[0], a.shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		row := a.data[i*n : (i+1)*n]
		dst := out.data[i*n : (i+1)*n]
		mx := row[0]
		for _, v := range row[1:] {
			if v > mx {
				mx = v
			}
		}
		s := 0.0
		for j, v := range row {
			e := math.Exp(v - mx)
			dst[j] = e
			s += e
		}
		inv := 1.0 / s
		for j := range dst {
			dst[j] *= inv
		}
	}
	return out, nil
}

// Entropy returns the Shannon entropy (nats) of a probability vector,
// treating zero entries as contributing zero.
func Entropy(probs []float64) float64 {
	h := 0.0
	for _, p := range probs {
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	return h
}

// String renders small tensors for debugging; large tensors are summarized.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.data) <= 16 {
		fmt.Fprintf(&b, "%v", t.data)
	} else {
		fmt.Fprintf(&b, "[%g %g ... %g] (n=%d, mean=%.4g)",
			t.data[0], t.data[1], t.data[len(t.data)-1], len(t.data), t.Mean())
	}
	return b.String()
}

// AllClose reports whether all corresponding elements of a and b differ by at
// most tol. Tensors of different sizes are never close.
func AllClose(a, b *Tensor, tol float64) bool {
	if len(a.data) != len(b.data) {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}
