package simgpt

import "math/rand"

// The generator behind rand.NewSource (math/rand's rngSource) is an
// additive lagged Fibonacci register of rngLen words. Seeding fills word i
// from three consecutive outputs of the LCG x ← 48271·x mod (2³¹−1),
// XORed with rngCooked[i]; draw k then adds the words at feed and tap,
// stores the sum at feed and returns it.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	lcgMul   = 48271
)

// lcgJump[i] is lcgMul^(21+3i) mod int32max. Seeding steps the LCG 20
// times before word 0 and 3 times per word, so word i starts from the
// seed's (21+3i)-th successor, which is lcgJump[i]·seed mod int32max.
var lcgJump = func() (t [rngLen]uint64) {
	x := uint64(1)
	for range 20 {
		x = x * lcgMul % int32max
	}
	for i := range t {
		x = x * lcgMul % int32max
		t[i] = x
		x = x * lcgMul % int32max
		x = x * lcgMul % int32max
	}
	return t
}()

// lazySource returns the numbers of rand.NewSource(seed) bit for bit
// without building its register up front. The first rngTap draws read
// only words nothing has written yet (draw k reads words rngLen−rngTap−k
// and rngLen−k and writes the first), so each is two jumped-ahead LCG
// words: a few multiply-mods instead of the 1,841 LCG steps and 4.9 KB
// register a seeding costs. Draw rngTap+1 builds the full register in the
// state rngSource would have reached and continues as rngSource does.
//
// A completion draws a few dozen numbers, so it seeds in O(1) and
// allocates no register.
type lazySource struct {
	seed      uint64 // normalized as rngSource.Seed does, in [1, int32max)
	n         int    // draws made
	vec       *[rngLen]int64
	tap, feed int
}

var _ rand.Source64 = (*lazySource)(nil)

func newLazySource(seed int64) *lazySource {
	s := new(lazySource)
	s.Seed(seed)
	return s
}

// Seed implements rand.Source.
func (s *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	*s = lazySource{seed: uint64(seed)}
}

// word returns word i of the freshly seeded register.
func (s *lazySource) word(i int) int64 {
	x1 := lcgJump[i] * s.seed % int32max
	x2 := x1 * lcgMul % int32max
	x3 := x2 * lcgMul % int32max
	return int64(x1<<40^x2<<20^x3) ^ rngCooked[i]
}

// Uint64 implements rand.Source64.
func (s *lazySource) Uint64() uint64 {
	if s.n < rngTap {
		s.n++
		return uint64(s.word(rngLen-rngTap-s.n) + s.word(rngLen-s.n))
	}
	if s.vec == nil {
		s.fill()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// fill builds the register as rngSource holds it after rngTap draws.
func (s *lazySource) fill() {
	s.vec = new([rngLen]int64)
	for i := range s.vec {
		s.vec[i] = s.word(i)
	}
	for k := 1; k <= rngTap; k++ {
		s.vec[rngLen-rngTap-k] += s.vec[rngLen-k]
	}
	s.tap, s.feed = rngLen-rngTap, rngLen-2*rngTap
}
