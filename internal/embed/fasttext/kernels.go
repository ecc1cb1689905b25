package fasttext

// The trainer's hot loops, as generic Go. On amd64 CPUs with AVX2,
// kernels_amd64.s runs each of them four float64 lanes at a time, with the
// same floating-point operations on the same operands in the same order,
// so both paths give the same bits; kernels_amd64.go picks one once at
// package init and kernels_other.go binds these loops everywhere else.
// Every kernel reads and writes len(dst) elements (len(v), len(grad) or
// len(h)); the other slices must be at least as long.

// axpyGeneric sets v[i] = v[i] + x[i]*s: the input-row update.
func axpyGeneric(v, x []float64, s float64) {
	x = x[:len(v)]
	for i := range v {
		v[i] += x[i] * s
	}
}

// add4Generic sets dst[i] = dst[i] + a[i] + b[i] + c[i] + e[i]. Go
// evaluates the sum left to right, so each element is the same sum as
// adding the four rows one at a time.
func add4Generic(dst, a, b, c, e []float64) {
	a, b, c, e = a[:len(dst)], b[:len(dst)], c[:len(dst)], e[:len(dst)]
	for i := range dst {
		dst[i] = dst[i] + a[i] + b[i] + c[i] + e[i]
	}
}

// add1Generic sets dst[i] += v[i].
func add1Generic(dst, v []float64) {
	v = v[:len(dst)]
	for i := range dst {
		dst[i] += v[i]
	}
}

// scaleByGeneric sets dst[i] *= s.
func scaleByGeneric(dst []float64, s float64) {
	for i := range dst {
		dst[i] *= s
	}
}

// update1Generic applies one pair's SGD step with gradient scale g to its
// output row o: grad[i] += g·o[i], then o[i] += g·h[i].
func update1Generic(grad, o, h []float64, g float64) {
	o, h = o[:len(grad)], h[:len(grad)]
	for i, hi := range h {
		grad[i] += g * o[i]
		o[i] += g * hi
	}
}

// update4Generic applies four pairs' SGD steps in one pass: for each
// element, in pair order j = 0..3, grad[i] += g[j]·o[j][i], then
// o[j][i] += g[j]·h[i]. The four rows must be distinct.
func update4Generic(grad []float64, o *[4][]float64, h []float64, g *[4]float64) {
	o0, o1, o2, o3 := o[0][:len(grad)], o[1][:len(grad)], o[2][:len(grad)], o[3][:len(grad)]
	g0, g1, g2, g3 := g[0], g[1], g[2], g[3]
	h = h[:len(grad)]
	for i, hi := range h {
		gi := grad[i]
		gi += g0 * o0[i]
		o0[i] += g0 * hi
		gi += g1 * o1[i]
		o1[i] += g1 * hi
		gi += g2 * o2[i]
		o2[i] += g2 * hi
		gi += g3 * o3[i]
		o3[i] += g3 * hi
		grad[i] = gi
	}
}

// dot8Generic sets dots[j] = Σ h[i]·o[j][i], each summed left to right
// from +0.
func dot8Generic(dots *[8]float64, h []float64, o *[8][]float64) {
	for j, row := range o {
		row = row[:len(h)]
		dot := 0.0
		for i, hi := range h {
			dot += hi * row[i]
		}
		dots[j] = dot
	}
}
