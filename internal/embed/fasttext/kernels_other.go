//go:build !amd64

package fasttext

// Without the amd64 assembly, the trainer's kernels are the generic loops.

func axpy(v, x []float64, s float64)          { axpyGeneric(v, x, s) }
func add4(dst, a, b, c, e []float64)          { add4Generic(dst, a, b, c, e) }
func add1(dst, v []float64)                   { add1Generic(dst, v) }
func scaleBy(dst []float64, s float64)        { scaleByGeneric(dst, s) }
func update1(grad, o, h []float64, g float64) { update1Generic(grad, o, h, g) }
func update4(grad []float64, o *[4][]float64, h []float64, g *[4]float64) {
	update4Generic(grad, o, h, g)
}
func dot8(dots *[8]float64, h []float64, o *[8][]float64) { dot8Generic(dots, h, o) }
