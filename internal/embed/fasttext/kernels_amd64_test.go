package fasttext

import (
	"math"
	"math/rand"
	"testing"
)

func requireAVX2(t *testing.T) {
	t.Helper()
	if !useAVX2 {
		t.Skip("CPU or OS without AVX2: the generic loops are the only path")
	}
}

// kernelValues are the special inputs the kernel oracles mix into random
// vectors: signed zeros, subnormals, infinities and magnitudes whose
// products and sums overflow (giving Inf and, from Inf−Inf or 0·Inf, NaN).
var kernelValues = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x0008000000000001),
	math.Inf(1), math.Inf(-1),
	math.MaxFloat64, -math.MaxFloat64, 1e300, -3e307, 1e-300,
	1, -1, 0.5,
}

// guard is the number of sentinel elements past the end of every vector;
// a kernel that writes beyond len(dst) changes them.
const guard = 3

var sentinel = math.Float64frombits(0x7ff4000000c0ffee)

type kernelRand struct{ *rand.Rand }

func (r kernelRand) value() float64 {
	if r.Intn(3) == 0 {
		return kernelValues[r.Intn(len(kernelValues))]
	}
	return r.NormFloat64() * math.Ldexp(1, r.Intn(40)-20)
}

// vec returns n random values; its capacity holds guard sentinels.
func (r kernelRand) vec(n int) []float64 {
	v := make([]float64, n+guard)
	for i := range v {
		v[i] = sentinel
		if i < n {
			v[i] = r.value()
		}
	}
	return v[:n]
}

// clone copies v with its guard sentinels.
func clone(v []float64) []float64 {
	c := make([]float64, cap(v))
	copy(c, v[:cap(v)])
	return c[:len(v)]
}

// kernelOracles run each AVX2 kernel and its generic loop on the same
// random inputs of length n and return what each wrote.
var kernelOracles = []struct {
	name string
	run  func(r kernelRand, n int) (got, want [][]float64)
}{
	{"axpy", func(r kernelRand, n int) (got, want [][]float64) {
		v, x, s := r.vec(n), r.vec(n), r.value()
		w := clone(v)
		axpyAVX2(v, x, s)
		axpyGeneric(w, x, s)
		return [][]float64{v}, [][]float64{w}
	}},
	{"add4", func(r kernelRand, n int) (got, want [][]float64) {
		dst, a, b, c, e := r.vec(n), r.vec(n), r.vec(n), r.vec(n), r.vec(n)
		w := clone(dst)
		add4AVX2(dst, a, b, c, e)
		add4Generic(w, a, b, c, e)
		return [][]float64{dst}, [][]float64{w}
	}},
	{"add1", func(r kernelRand, n int) (got, want [][]float64) {
		dst, v := r.vec(n), r.vec(n)
		w := clone(dst)
		add1AVX2(dst, v)
		add1Generic(w, v)
		return [][]float64{dst}, [][]float64{w}
	}},
	{"scaleBy", func(r kernelRand, n int) (got, want [][]float64) {
		dst, s := r.vec(n), r.value()
		w := clone(dst)
		scaleByAVX2(dst, s)
		scaleByGeneric(w, s)
		return [][]float64{dst}, [][]float64{w}
	}},
	{"update1", func(r kernelRand, n int) (got, want [][]float64) {
		grad, o, h, g := r.vec(n), r.vec(n), r.vec(n), r.value()
		wgrad, wo := clone(grad), clone(o)
		update1AVX2(grad, o, h, g)
		update1Generic(wgrad, wo, h, g)
		return [][]float64{grad, o}, [][]float64{wgrad, wo}
	}},
	{"update4", func(r kernelRand, n int) (got, want [][]float64) {
		grad, h := r.vec(n), r.vec(n)
		var o, wo [4][]float64
		var g [4]float64
		for j := range o {
			o[j], g[j] = r.vec(n), r.value()
			wo[j] = clone(o[j])
		}
		wgrad := clone(grad)
		update4AVX2(grad, &o, h, &g)
		update4Generic(wgrad, &wo, h, &g)
		return append([][]float64{grad}, o[:]...), append([][]float64{wgrad}, wo[:]...)
	}},
	{"dot8", func(r kernelRand, n int) (got, want [][]float64) {
		h := r.vec(n)
		var o [8][]float64
		for j := range o {
			o[j] = r.vec(n)
		}
		var dots, wdots [8]float64
		dots[0], wdots[0] = sentinel, sentinel
		dot8AVX2(&dots, h, &o)
		dot8Generic(&wdots, h, &o)
		return [][]float64{dots[:]}, [][]float64{wdots[:]}
	}},
}

// TestAVX2KernelsMatchGeneric holds every AVX2 kernel to its generic loop
// bit for bit, at every length from 0 to 67 (each tail length with 0 to 16
// vector steps), on values that include signed zeros, subnormals,
// infinities and overflowing magnitudes. Writes past len(dst) fail too.
func TestAVX2KernelsMatchGeneric(t *testing.T) {
	requireAVX2(t)
	for _, k := range kernelOracles {
		t.Run(k.name, func(t *testing.T) {
			r := kernelRand{rand.New(rand.NewSource(1))}
			for n := 0; n <= 67; n++ {
				for trial := 0; trial < 32; trial++ {
					got, want := k.run(r, n)
					for v := range want {
						g, w := got[v][:cap(got[v])], want[v][:cap(want[v])]
						for i := range w {
							if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
								t.Fatalf("n=%d trial %d: output %d element %d = %v (%#x), generic %v (%#x)",
									n, trial, v, i, g[i], math.Float64bits(g[i]), w[i], math.Float64bits(w[i]))
							}
						}
					}
				}
			}
		})
	}
}

// TestTrainSkipgramMatchesReferenceGeneric reruns the reference check with
// the AVX2 kernels switched off, so the generic loops stay covered on
// machines that have AVX2.
func TestTrainSkipgramMatchesReferenceGeneric(t *testing.T) {
	requireAVX2(t)
	useAVX2 = false
	t.Cleanup(func() { useAVX2 = true })
	TestTrainSkipgramMatchesReference(t)
}
