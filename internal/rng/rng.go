// Package rng provides math/rand's default generator with a faster
// Seed. NewSource(seed) yields exactly the stream rand.NewSource(seed)
// does — every Int63 and Uint64, and so every derived draw through
// rand.New — so swapping it in changes no output.
//
// The generator is Go's additive lagged-Fibonacci source (Mitchell and
// Reeds): a 607-word register with a tap at 273, updated as
// vec[feed] += vec[tap]. math/rand seeds the register from a serial
// Lehmer chain x ← 48271·x mod (2³¹−1), 1,841 dependent steps of
// Schrage's division-based reduction, XORed with a 607-entry "cooked"
// table; at about 12 µs a seed, re-seeding dominates short-lived
// generators such as one per forest tree. Here Seed computes the same
// chain values as x_k = seed·48271^k mod (2³¹−1) on three interleaved
// chains, each stepping by 48271³ with a division-free Mersenne
// reduction, so the multiplications overlap instead of waiting on one
// another.
//
// The cooked table is not copied: it is derived once at package init
// from the first 607 outputs of rand.NewSource(1). The register update
// is additive, so the initial register can be recovered from the
// outputs by subtraction, and XORing out seed 1's Lehmer words leaves
// the table.
package rng

import "math/rand"

const (
	regLen = 607
	regTap = 273
	// mod is the Lehmer chain's Mersenne prime modulus, 2³¹−1.
	mod = 1<<31 - 1
	// mul is the Lehmer multiplier.
	mul = 48271
	// skip is how many chain steps math/rand discards before the first
	// register word.
	skip = 20
	// zeroSeed replaces a seed that is 0 modulo mod, as math/rand does.
	zeroSeed = 89482311
)

// cooked is math/rand's rngCooked table, derived by deriveCooked.
var cooked = deriveCooked()

// mul3 is mul³ mod mod: one step of each interleaved chain.
var mul3 = mulMod(mulMod(mul, mul), mul)

// Source is math/rand's default generator with a fast Seed. It
// implements rand.Source64; like rand.NewSource's, it is not safe for
// concurrent use.
type Source struct {
	tap  int
	feed int
	vec  [regLen]int64
}

// NewSource returns a Source seeded with seed: the stream of
// rand.NewSource(seed).
func NewSource(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹ without a division:
// 2³¹ ≡ 1, so the product's high and low 31-bit halves add up to it
// modulo the prime, and one conditional subtraction finishes.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := (p & mod) + (p >> 31)
	if r >= mod {
		r -= mod
	}
	return r
}

// powMod returns mul^k mod (2³¹−1).
func powMod(k int) uint64 {
	r, b := uint64(1), uint64(mul)
	for ; k > 0; k >>= 1 {
		if k&1 == 1 {
			r = mulMod(r, b)
		}
		b = mulMod(b, b)
	}
	return r
}

// Seed resets the source to the stream of rand.NewSource(seed).
//
// math/rand's loop steps the chain skip times, then fills register
// word i from three consecutive values, x_{skip+3i+1} << 40 ^
// x_{skip+3i+2} << 20 ^ x_{skip+3i+3}, where x_k = x_0·mul^k. Value j
// of word i therefore sits on chain j, which starts at x_{skip+1+j}
// and steps by mul³ from one word to the next.
func (s *Source) Seed(seed int64) { s.seed(seed, &cooked) }

// seed is Seed with the cooked table passed in, so deriveCooked can
// run it with a zero table before cooked exists.
func (s *Source) seed(seed int64, table *[regLen]int64) {
	s.tap = 0
	s.feed = regLen - regTap
	seed %= mod
	if seed < 0 {
		seed += mod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	a := mulMod(uint64(seed), powMod(skip+1))
	b := mulMod(a, mul)
	c := mulMod(b, mul)
	for i := range s.vec {
		s.vec[i] = int64(a)<<40 ^ int64(b)<<20 ^ int64(c) ^ table[i]
		a = mulMod(a, mul3)
		b = mulMod(b, mul3)
		c = mulMod(c, mul3)
	}
}

// Uint64 returns the next 64 bits of the stream.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += regLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += regLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value of the stream as a non-negative int64.
func (s *Source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// deriveCooked recovers math/rand's cooked table from rand.NewSource(1).
//
// Output k (1-based) of a freshly seeded register V adds the feed word
// (334−k) mod 607 and the tap word 607−k, and stores the sum at the
// feed. Feeds walk down from 333 and taps from 606, so the tap reaches
// the first overwritten word at k = 274: for k ≤ 273 both words are
// initial, out_k = V[334−k] + V[607−k]; for k > 273 the tap word holds
// output k−273, out_k = V[(334−k) mod 607] + out_{k−273}. The second
// form gives V[0..60] and V[334..606] directly, and then the first
// gives V[61..333] from V[334..606]. XORing out seed 1's Lehmer words
// leaves the table.
func deriveCooked() [regLen]int64 {
	src := rand.NewSource(1).(rand.Source64)
	var out [regLen + 1]int64 // 1-based
	for k := 1; k <= regLen; k++ {
		out[k] = int64(src.Uint64())
	}
	const feed0 = regLen - regTap // 334
	var v [regLen]int64
	for k := regTap + 1; k <= regLen; k++ {
		v[(feed0-k+regLen)%regLen] = out[k] - out[k-regTap]
	}
	for k := 1; k <= regTap; k++ {
		v[feed0-k] = out[k] - v[regLen-k]
	}
	var s Source
	s.seed(1, &[regLen]int64{}) // seed 1's Lehmer words alone
	for i := range v {
		v[i] ^= s.vec[i]
	}
	return v
}
