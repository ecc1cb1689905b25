package simgpt

import (
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/tokenize"
)

// refSharedSignals is the two-map scan reading.shared replaced, kept as
// the fuzz oracle: up to n distinctive words of a that also occur in b.
// topSignals is the oracle for reading.inputSignals.
func refSharedSignals(a, b string, n int) []string {
	inB := make(map[string]bool)
	for w := range tokenize.Scan(b) {
		if !inB[string(w)] {
			inB[string(w)] = true
		}
	}
	seen := make(map[string]bool)
	var out []string
	for w := range tokenize.Scan(a) {
		if seen[string(w)] || !inB[string(w)] {
			continue
		}
		if len(w) >= 8 || isSignalWord(w) || hasDigit(w) && len(w) >= 4 {
			s := string(w)
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) > len(out[j])
		}
		return out[i] < out[j]
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

func FuzzSharedSignals(f *testing.F) {
	for _, s := range [][2]string{
		{"", ""},
		{"WinSock error 11001 on MB09, UDP socket count 15276 by Transport.exe",
			"WinSock error 11001 on MB10, UDP socket count 14002 for Transport.exe. category: HubPortExhaustion."},
		{"delivery stuck, queue full, crash crashed CRASH 0x1f 2024 ab12",
			"Stuck delivery; full disk; crashed twice 2024 AB12 0X1F"},
		{"Ünïcödé ÉCHEC Straße İİİİ \xff\xfe failure", "straße échec failure İİİİ"},
		{"TenantSettingsNotFoundException TenantSettingsNotFoundException x", "tenantsettingsnotfoundexception"},
	} {
		f.Add(s[0], s[1], uint8(4))
	}
	f.Fuzz(func(t *testing.T, input, body string, n uint8) {
		if strings.HasPrefix(body, "Unseen incident") {
			t.Skip("the unseen option is never scored or explained")
		}
		opts := []option{{letter: "A", body: "Unseen incident."}, {letter: "B", body: body}}
		r := readOptions(input, opts)
		if got, want := r.shared(1, int(n)), refSharedSignals(input, body, int(n)); !slices.Equal(got, want) {
			t.Fatalf("shared(%q, %q, %d) = %q, want %q", input, body, n, got, want)
		}
		if got, want := r.inputSignals(int(n)), topSignals(input, int(n)); !slices.Equal(got, want) {
			t.Fatalf("inputSignals(%q, %d) = %q, want %q", input, n, got, want)
		}
	})
}

// refRNG is the completion RNG before the lazy source: rand.NewSource
// seeded with the client seed XOR the prompt's FNV-1a 64 hash.
func refRNG(seed int64, prompt string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(prompt))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// TestCompletionRNGMatchesReference draws the distributions the simulated
// completions use from both generators, past the lazy source's fallback.
func TestCompletionRNGMatchesReference(t *testing.T) {
	for _, seed := range []int64{0, 1, 9, -7, int32max} {
		c := mustClient(t, GPT4, seed)
		for _, prompt := range []string{"", diagText, "Ünïcödé \xff prompt\n"} {
			_, h := tokenize.EstimateTokensHash(prompt)
			got, want := c.rng(h), refRNG(c.opts.Seed, prompt)
			for i := 0; i < 1000; i++ {
				var g, w float64
				switch i % 4 {
				case 0:
					g, w = got.Float64(), want.Float64()
				case 1:
					g, w = got.NormFloat64(), want.NormFloat64()
				case 2:
					g, w = float64(got.Intn(2)), float64(want.Intn(2))
				default:
					g, w = float64(got.Int63()), float64(want.Int63())
				}
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("seed %d prompt %.20q call %d: got %v, want %v", seed, prompt, i, g, w)
				}
			}
		}
	}
}

func FuzzLazySource(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, 89482311, int32max, -int32max, 2 * int32max,
		-3 * int32max, math.MaxInt64, math.MinInt64} {
		f.Add(seed, uint16(2000), uint64(0x5555_0f0f_ff00_1234))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16, ops uint64) {
		got := newLazySource(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < int(draws%2001); i++ {
			if ops>>(i%64)&1 == 0 {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 = %#x, want %#x", seed, i+1, g, w)
				}
			} else if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d draw %d: Int63 = %#x, want %#x", seed, i+1, g, w)
			}
		}
	})
}

// TestLazySourceDefersRegister pins the O(1) seeding: the register is
// built only by the draw after rngTap, and re-seeding drops it.
func TestLazySourceDefersRegister(t *testing.T) {
	s := newLazySource(42)
	for range rngTap {
		s.Uint64()
	}
	if s.vec != nil {
		t.Fatalf("register built within the first %d draws", rngTap)
	}
	s.Uint64()
	if s.vec == nil {
		t.Fatalf("register not built by draw %d", rngTap+1)
	}
	s.Seed(42)
	if s.vec != nil || s.n != 0 {
		t.Fatal("Seed must restart the lazy phase")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		r := rand.New(newLazySource(7))
		for range rngTap {
			r.Int63()
		}
	}); allocs > 2 {
		t.Fatalf("seeding and %d draws allocate %v times, want the source and the Rand only", rngTap, allocs)
	}
}
