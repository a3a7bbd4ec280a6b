package detrand

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds are the seeds where rngSource.Seed's normalisation has a
// branch or a boundary: zero and the value it stands in for, the
// modulus and its multiples (which normalise to zero), the values next
// to them, and the int64 extremes.
func edgeSeeds() []int64 {
	seeds := []int64{0, 1, -1, 2, zeroSeed, -zeroSeed, math.MinInt64, math.MaxInt64,
		math.MinInt64 + 1, math.MaxInt64 - 1}
	for _, m := range []int64{1, 2, 3, 1 << 20, math.MaxInt64 / int32max} {
		for _, d := range []int64{-1, 0, 1} {
			seeds = append(seeds, m*int32max+d, -m*int32max+d)
		}
	}
	return seeds
}

// testSeeds adds thousands of random seeds spread over the full int64
// range to edgeSeeds.
func testSeeds(n int) []int64 {
	seeds := edgeSeeds()
	r := rand.New(rand.NewSource(20140909))
	for i := 0; i < n; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

func TestFloat64MatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds(5000) {
		want := rand.New(rand.NewSource(seed)).Float64()
		if got := Float64(seed); got != want {
			t.Fatalf("Float64(%d) = %v, math/rand %v", seed, got, want)
		}
	}
}

func TestNewMatchesMathRandMixedDraws(t *testing.T) {
	// Each seed draws well past rngLen values through a mix of Rand
	// methods, so the lagged register wraps and every method's use of
	// the source is checked.
	for _, seed := range testSeeds(1000) {
		want := rand.New(rand.NewSource(seed))
		got := New(seed)
		for k := 0; k < 1500; k++ {
			var w, g float64
			switch k % 5 {
			case 0:
				w, g = want.Float64(), got.Float64()
			case 1:
				w, g = want.NormFloat64(), got.NormFloat64()
			case 2:
				w, g = float64(want.Intn(1000+k)), float64(got.Intn(1000+k))
			case 3:
				wu, gu := want.Uint64(), got.Uint64()
				if wu != gu {
					t.Fatalf("seed %d draw %d: Uint64 = %#x, math/rand %#x", seed, k, gu, wu)
				}
				continue
			case 4:
				w, g = want.ExpFloat64(), got.ExpFloat64()
			}
			if w != g {
				t.Fatalf("seed %d draw %d (kind %d): got %v, math/rand %v", seed, k, k%5, g, w)
			}
		}
	}
}

func TestSeedResetsStream(t *testing.T) {
	r := New(5)
	first := r.Int63()
	for i := 0; i < 3*rngLen; i++ {
		r.Int63()
	}
	r.Seed(5)
	if got := r.Int63(); got != first {
		t.Errorf("after Seed(5): first draw %d, want %d", got, first)
	}
}

func TestFirstFloat64RetriesLikeMathRand(t *testing.T) {
	// No seed in reach has a first draw that rounds to 1.0, so drive
	// the branch directly: math/rand would discard that draw and return
	// the Float64 of the rest of the stream.
	const top = 1<<63 - 1
	for _, seed := range edgeSeeds() {
		want := rand.New(rand.NewSource(seed))
		want.Int63()
		w := want.Float64()
		for _, first := range []int64{top, top - 511} {
			if got := firstFloat64(seed, first); got != w {
				t.Fatalf("seed %d first %#x: got %v, want retried %v", seed, first, got, w)
			}
		}
	}
	// Just below the rounding boundary the draw is kept.
	if got := firstFloat64(1, top-512); got >= 1 {
		t.Errorf("firstFloat64 kept no draw below the boundary: %v", got)
	}
}

func TestMulModMatchesBigProduct(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		a := uint64(r.Int63n(int32max))
		b := uint64(r.Int63n(int32max))
		if got, want := mulMod(a, b), a*b%int32max; got != want {
			t.Fatalf("mulMod(%d, %d) = %d, want %d", a, b, got, want)
		}
	}
	if got := mulMod(int32max-1, int32max-1); got != 1 {
		t.Errorf("mulMod(-1, -1) = %d, want 1", got)
	}
}

func TestFloat64DoesNotAllocate(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { Float64(42) }); n != 0 {
		t.Errorf("Float64 allocates %v times per call", n)
	}
}

func FuzzStreamMatchesMathRand(f *testing.F) {
	for _, s := range edgeSeeds() {
		f.Add(s, uint16(rngLen+1))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		if w, g := rand.New(rand.NewSource(seed)).Float64(), Float64(seed); w != g {
			t.Fatalf("Float64(%d) = %v, math/rand %v", seed, g, w)
		}
		want := rand.New(rand.NewSource(seed))
		got := New(seed)
		for k := 0; k < int(n)%(4*rngLen); k++ {
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("seed %d draw %d: Int63 = %d, math/rand %d", seed, k, g, w)
			}
		}
	})
}
