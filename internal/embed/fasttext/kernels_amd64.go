package fasttext

// useAVX2 selects the AVX2 kernels of kernels_amd64.s over the generic
// loops of kernels.go. It is fixed at package init: the CPU must report
// AVX2 and the operating system must save the YMM registers. Tests clear
// it to run the generic loops on the same machine.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reads CPUID leaves 1 and 7 and XCR0.
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the XMM and YMM state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func axpy(v, x []float64, s float64) {
	if useAVX2 {
		axpyAVX2(v, x[:len(v)], s)
		return
	}
	axpyGeneric(v, x, s)
}

func add4(dst, a, b, c, e []float64) {
	if useAVX2 {
		add4AVX2(dst, a[:len(dst)], b[:len(dst)], c[:len(dst)], e[:len(dst)])
		return
	}
	add4Generic(dst, a, b, c, e)
}

func add1(dst, v []float64) {
	if useAVX2 {
		add1AVX2(dst, v[:len(dst)])
		return
	}
	add1Generic(dst, v)
}

func scaleBy(dst []float64, s float64) {
	if useAVX2 {
		scaleByAVX2(dst, s)
		return
	}
	scaleByGeneric(dst, s)
}

func update1(grad, o, h []float64, g float64) {
	if useAVX2 {
		update1AVX2(grad, o[:len(grad)], h[:len(grad)], g)
		return
	}
	update1Generic(grad, o, h, g)
}

func update4(grad []float64, o *[4][]float64, h []float64, g *[4]float64) {
	if useAVX2 {
		for j := range o {
			o[j] = o[j][:len(grad)]
		}
		update4AVX2(grad, o, h[:len(grad)], g)
		return
	}
	update4Generic(grad, o, h, g)
}

func dot8(dots *[8]float64, h []float64, o *[8][]float64) {
	if useAVX2 {
		for j := range o {
			o[j] = o[j][:len(h)]
		}
		dot8AVX2(dots, h, o)
		return
	}
	dot8Generic(dots, h, o)
}

// The AVX2 kernels. Each runs the generic loop's expressions over four
// elements per step (VMULPD then VADDPD, never a fused multiply-add, with
// the Go expression's operand order) and finishes the len%4 tail with the
// scalar forms of the same instructions. The Go wrappers above have
// checked every slice's length.

//go:noescape
func axpyAVX2(v, x []float64, s float64)

//go:noescape
func add4AVX2(dst, a, b, c, e []float64)

//go:noescape
func add1AVX2(dst, v []float64)

//go:noescape
func scaleByAVX2(dst []float64, s float64)

//go:noescape
func update1AVX2(grad, o, h []float64, coef float64)

//go:noescape
func update4AVX2(grad []float64, o *[4][]float64, h []float64, coef *[4]float64)

//go:noescape
func dot8AVX2(dots *[8]float64, h []float64, o *[8][]float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
