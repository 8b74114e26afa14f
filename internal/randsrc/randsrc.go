// Package randsrc provides Source, a math/rand source that replays
// rand.NewSource(seed)'s value stream bit for bit but re-seeds in O(1).
// Code that re-seeds one generator per unit of work (a cloud fault draw, a
// randomized-planner restart) wraps a Source in rand.New once and calls
// Seed per unit.
package randsrc

import "math/rand"

// Source is a math/rand Source whose value stream is exactly that of
// rand.NewSource(seed), without what re-seeding costs. Seeding math/rand's
// source runs 1 841 steps of its seeding LCG to fill a 607-word register,
// and a fault draw then reads only four values. Here Seed only records the
// seed; each output takes the register words it needs straight from the
// seed, by jumping the LCG to the three states behind each word.
//
// math/rand's source is an additive lagged Fibonacci generator over the
// register vec that Seed fills. Counting calls from k = 0 after Seed, it
// returns o_k = F_k + T_k (mod 2⁶⁴), where
//
//	F_k = o_{k-607} once k ≥ 607, else vec[(333-k) mod 607]
//	T_k = o_{k-273} once k ≥ 273, else vec[606-k]
//
// and Seed sets vec[i] = x_{21+3i}<<40 ^ x_{22+3i}<<20 ^ x_{23+3i} ^
// rngCooked[i], with x_j the seeding LCG x ↦ 48271·x mod (2³¹−1) stepped j
// times from the normalized seed. Past outputs live in a 607-word ring, so
// the stream is exact at any length. Go 1 freezes math/rand's value stream
// (the compatibility note on Rand.Float64), so the constants and the table
// recovered below cannot drift from it. Call Seed before the first output.
type Source struct {
	x0   uint64         // the seeding LCG's starting state, in [1, lcgMod)
	n    int            // outputs since Seed
	ring [rngLen]uint64 // ring[k % rngLen] = o_k for the last rngLen outputs
}

const (
	rngLen  = 607       // register length
	rngTap  = 273       // the second lag
	lcgMod  = 1<<31 - 1 // seeding LCG modulus
	lcgMul  = 48271     // seeding LCG multiplier
	lcgSkip = 20        // LCG steps Seed discards before filling the register
	// seedZero is what math/rand seeds with when the seed is ≡ 0 mod lcgMod.
	seedZero = 89482311
)

var (
	// lcgJump[i][j] = lcgMul^(lcgSkip+1+3i+j) mod lcgMod: the multipliers
	// taking the seed to the three LCG states behind register word i.
	lcgJump [rngLen][3]uint64
	// rngCooked is math/rand's unexported register whitening table,
	// recovered from rand.NewSource(1)'s first rngLen outputs.
	rngCooked [rngLen]uint64
)

func init() {
	p := uint64(1)
	for k := 0; k < lcgSkip; k++ {
		p = p * lcgMul % lcgMod
	}
	for i := range lcgJump {
		for j := range lcgJump[i] {
			p = p * lcgMul % lcgMod
			lcgJump[i][j] = p
		}
	}

	// Invert the recurrence on seed 1's outputs: for 273 ≤ k < 607, T_k is
	// an earlier output, which leaves F_k = vec[(333-k) mod 607]; that
	// fills vec[334..606], and with it T_k = vec[606-k] for k < 273.
	src := rand.NewSource(1).(rand.Source64)
	var o, vec [rngLen]uint64
	for k := range o {
		o[k] = src.Uint64()
	}
	for k := rngTap; k < rngLen; k++ {
		vec[feedIndex(k)] = o[k] - o[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		vec[feedIndex(k)] = o[k] - vec[rngLen-1-k]
	}
	one := Source{x0: 1}
	for i := range rngCooked {
		rngCooked[i] = vec[i] ^ one.lcgWord(i)
	}
}

// feedIndex is the register word output k < rngLen adds its tap to.
func feedIndex(k int) int { return (2*rngLen - rngTap - 1 - k) % rngLen }

// lcgWord is the seeding LCG's contribution to register word i.
func (s *Source) lcgWord(i int) uint64 {
	j := &lcgJump[i]
	return (s.x0*j[0]%lcgMod)<<40 ^ (s.x0*j[1]%lcgMod)<<20 ^ s.x0*j[2]%lcgMod
}

// vec is register word i as rand.NewSource's Seed leaves it.
func (s *Source) vec(i int) uint64 { return s.lcgWord(i) ^ rngCooked[i] }

// Seed restarts the stream at rand.NewSource(seed)'s first output.
func (s *Source) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = seedZero
	}
	s.x0 = uint64(seed)
	s.n = 0
}

// Uint64 returns the next output of rand.NewSource(seed).(rand.Source64).
func (s *Source) Uint64() uint64 {
	k := s.n
	var f, t uint64
	if k >= rngLen {
		f = s.ring[k%rngLen]
	} else {
		f = s.vec(feedIndex(k))
	}
	if k >= rngTap {
		t = s.ring[(k-rngTap)%rngLen]
	} else {
		t = s.vec(rngLen - 1 - k)
	}
	out := f + t
	s.ring[k%rngLen] = out
	s.n++
	return out
}

// Int63 returns the next output of rand.NewSource(seed).
func (s *Source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
