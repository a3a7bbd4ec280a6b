// Package detrand reproduces math/rand's seeded streams without its
// serial reseed.
//
// rand.NewSource(seed) fills a 607-word lagged-Fibonacci register by
// walking a Lehmer chain x[k+1] = 48271·x[k] mod (2³¹−1) for 1,841
// dependent steps: register word i is
//
//	vec[i] = (x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i]) ^ rngCooked[i]
//
// with x[0] the normalised seed. Because x[k] = x[0]·48271^k mod
// (2³¹−1), any word can be computed directly from precomputed powers.
// New seeds the full register with three interleaved chains, each
// stepping by 48271³ with a Mersenne reduction instead of the serial
// Schrage division. Float64 goes further: the stream's first draw reads
// only vec[333]+vec[606], so it costs six multiplications and no
// allocation.
//
// Every value is exactly the value rand.New(rand.NewSource(seed))
// would return, for every seed and every draw sequence. math/rand stays
// the only source of truth: its private rngCooked table is recovered
// once at init from one of its own streams, not copied here.
package detrand

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime
	lehmerA  = 48271

	// firstFeed and firstTap are the register words the first draw of
	// a freshly seeded stream adds together.
	firstFeed = rngLen - rngTap - 1
	firstTap  = rngLen - 1

	// zeroSeed replaces a seed that is 0 modulo int32max, as math/rand
	// does.
	zeroSeed = 89482311

	// lehmerA3 is the step of each chain from vec[i] to vec[i+1].
	lehmerA3 = lehmerA * lehmerA % int32max * lehmerA % int32max
)

var (
	// cooked is math/rand's rngCooked table, recovered by recoverCooked.
	cooked [rngLen]int64
	// lead holds 48271^k mod int32max for k = 21, 22, 23: the offsets of
	// the three chain words that make up vec[0].
	lead [3]uint64
	// firstPow holds the chain powers of the two words the first draw
	// reads: vec[firstFeed] and vec[firstTap].
	firstPow [2][3]uint64
)

func init() {
	for j := range lead {
		lead[j] = powMod(lehmerA, uint64(21+j))
	}
	for w, i := range [2]uint64{firstFeed, firstTap} {
		for j := range firstPow[w] {
			firstPow[w][j] = powMod(lehmerA, 21+3*i+uint64(j))
		}
	}
	cooked = recoverCooked()
}

// recoverCooked derives rngCooked from the first rngLen outputs of one
// math/rand stream. Draw k adds vec[tap] into vec[feed] with
// feed = (333−k) mod 607 and tap = 606−k, so:
//   - for k in 273..606 the tap word was itself overwritten by draw
//     k−273, giving vec[(333−k) mod 607] = out[k] − out[k−273];
//   - for k in 0..272 both words are still original, giving
//     vec[333−k] = out[k] − vec[606−k], where vec[606−k] is already known.
//
// XOR-ing the seed's chain words back out of vec leaves rngCooked.
// It runs before cooked is set.
func recoverCooked() [rngLen]int64 {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var out [rngLen]int64
	for k := range out {
		out[k] = int64(src.Uint64())
	}
	var vec [rngLen]int64
	for k := rngTap; k < rngLen; k++ {
		vec[(firstFeed-k+rngLen)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		vec[firstFeed-k] = out[k] - vec[firstTap-k]
	}
	// cooked is still all zero here, so chain holds the bare chain words.
	var chain source
	chain.Seed(seed)
	for i := range vec {
		vec[i] ^= chain.vec[i]
	}
	return vec
}

// mulMod returns a·b mod int32max for a, b < int32max. The product fits
// in 62 bits; folding the high bits onto the low bits (2³¹ ≡ 1) leaves
// a value below 2³², and a second fold leaves it below int32max unless
// it is int32max itself, which would mean a·b ≡ 0 with a·b ≠ 0 — not
// possible modulo a prime. Two folds instead of a conditional
// subtraction keep the seeding loop free of unpredictable branches.
func mulMod(a, b uint64) uint64 {
	t := a * b
	t = t&int32max + t>>31
	return t&int32max + t>>31
}

// powMod returns a^k mod int32max.
func powMod(a, k uint64) uint64 {
	r := uint64(1)
	for ; k > 0; k >>= 1 {
		if k&1 == 1 {
			r = mulMod(r, a)
		}
		a = mulMod(a, a)
	}
	return r
}

// normSeed maps a seed onto the Lehmer chain's start x[0] the way
// rngSource.Seed does.
func normSeed(seed int64) uint64 {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = zeroSeed
	}
	return uint64(seed)
}

// chainStart returns the three chain words behind vec[0].
func chainStart(seed int64) (x0, x1, x2 uint64) {
	x := normSeed(seed)
	return mulMod(x, lead[0]), mulMod(x, lead[1]), mulMod(x, lead[2])
}

// chainWord combines three chain words into a register word before the
// rngCooked XOR.
func chainWord(x0, x1, x2 uint64) int64 {
	return int64(x0)<<40 ^ int64(x1)<<20 ^ int64(x2)
}

// Float64 returns rand.New(rand.NewSource(seed)).Float64() without
// seeding a stream.
func Float64(seed int64) float64 {
	x := normSeed(seed)
	feed, tap := firstPow[0], firstPow[1]
	v := chainWord(mulMod(x, feed[0]), mulMod(x, feed[1]), mulMod(x, feed[2])) ^ cooked[firstFeed]
	v += chainWord(mulMod(x, tap[0]), mulMod(x, tap[1]), mulMod(x, tap[2])) ^ cooked[firstTap]
	return firstFloat64(seed, v&rngMask)
}

// firstFloat64 turns the stream's first Int63 into its first Float64.
// A draw so close to 1<<63 that the division rounds to 1.0 is rejected
// by math/rand, which draws again; that rare case replays the full
// stream past the rejected draw.
func firstFloat64(seed, first int64) float64 {
	f := float64(first) / (1 << 63)
	//lint:ignore floatcmp math/rand rejects exactly the draws that round to 1.0
	if f == 1 {
		r := New(seed)
		r.Int63()
		return r.Float64()
	}
	return f
}

// New returns a generator whose every draw equals that of
// rand.New(rand.NewSource(seed)).
func New(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// source is math/rand's additive lagged-Fibonacci generator with the
// fast seeding above; its layout matches rngSource, so a stream costs
// the same allocation.
type source struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

// Seed resets the register to the state rand.NewSource(seed) starts in.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	x0, x1, x2 := chainStart(seed)
	for i := range s.vec {
		s.vec[i] = chainWord(x0, x1, x2) ^ cooked[i]
		// The three chains are independent, so their multiplications
		// overlap in the pipeline where math/rand's one serial chain
		// could not.
		x0, x1, x2 = mulMod(x0, lehmerA3), mulMod(x1, lehmerA3), mulMod(x2, lehmerA3)
	}
}

// Int63 returns a non-negative 63-bit integer.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns the next 64-bit word of the stream.
func (s *source) Uint64() uint64 {
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
