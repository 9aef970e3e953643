// Package fnvx is a tiny allocation-free FNV-1a-style 64-bit
// accumulator used by the checkpoint subsystem to digest simulation
// state. Unlike hash/fnv it is a value type fed by typed Mix methods,
// so digesting a struct-of-arrays table is a loop of integer multiplies
// with no Write buffer and no heap traffic.
//
// Integers and floats are mixed as whole 64-bit words, not bytes: one
// xor and one multiply per value. The flash mapping tables alone are
// hundreds of thousands of values per checkpoint, and with word mixing
// a whole checkpoint frame of the 8-OSD home02/400 benchmark cluster
// (BenchmarkCheckpointSave) costs about 80 µs on a 2-vCPU VM. Each
// round is a bijection of the running state for a fixed value, so
// changing any single mixed value changes the sum. Bytes, bools and
// string contents are mixed one byte per round.
//
// The digest is stable across runs, platforms and process restarts: it
// depends only on the mixed values, never on memory layout or map
// iteration order (callers must mix map contents in a sorted order).
// Changing how a value is mixed changes every checkpoint's section
// digests, so it requires bumping snapshot.Version.
package fnvx

import "math"

// Hash is an in-progress digest. The zero value is NOT a valid start
// state; use New.
type Hash uint64

const (
	offset64 Hash = 14695981039346656037
	prime64  Hash = 1099511628211
)

// New returns the FNV-1a offset basis.
func New() Hash { return offset64 }

// Byte mixes a single byte.
func (h Hash) Byte(b byte) Hash {
	return (h ^ Hash(b)) * prime64
}

// Uint64 mixes a 64-bit value as one word.
func (h Hash) Uint64(v uint64) Hash {
	return (h ^ Hash(v)) * prime64
}

// Int64 mixes a signed 64-bit value.
func (h Hash) Int64(v int64) Hash { return h.Uint64(uint64(v)) }

// Int mixes an int.
func (h Hash) Int(v int) Hash { return h.Uint64(uint64(int64(v))) }

// Bool mixes a boolean as one byte.
func (h Hash) Bool(v bool) Hash {
	if v {
		return h.Byte(1)
	}
	return h.Byte(0)
}

// Float64 mixes the IEEE-754 bit pattern of v, so the digest
// distinguishes values a printf round-trip would conflate (and treats
// +0/−0 as distinct, which is what bit-exact resume verification
// wants).
func (h Hash) Float64(v float64) Hash { return h.Uint64(math.Float64bits(v)) }

// String mixes the length and bytes of s (length-prefixed, so
// concatenated strings cannot alias).
func (h Hash) String(s string) Hash {
	h = h.Int(len(s))
	for i := 0; i < len(s); i++ {
		h = h.Byte(s[i])
	}
	return h
}

// Sum returns the digest accumulated so far.
func (h Hash) Sum() uint64 { return uint64(h) }
