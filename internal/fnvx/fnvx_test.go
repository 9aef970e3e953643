package fnvx

import (
	"math"
	"testing"
)

// mixAll feeds one value of every kind through h.
func mixAll(h Hash, u uint64, i64 int64, i int, f float64, b bool, by byte, s string) Hash {
	return h.Uint64(u).Int64(i64).Int(i).Float64(f).Bool(b).Byte(by).String(s)
}

// TestSumPinned pins the digest of a fixed sequence of mixes. Every
// checkpoint frame seals its state with these digests, so a change
// here makes frames from older binaries fail verification: changing
// this value requires bumping snapshot.Version.
func TestSumPinned(t *testing.T) {
	const want = 0x63dab6e2e934110a
	got := mixAll(New(), 0x0123456789abcdef, -1, 42, 1.5, true, 7, "edm").Sum()
	if got != want {
		t.Fatalf("Sum = %#x, want %#x (bump snapshot.Version if the mixing changed on purpose)", got, want)
	}
}

// TestWordMixing pins the word-wise round: one xor and one multiply
// per 64-bit value.
func TestWordMixing(t *testing.T) {
	for _, v := range []uint64{0, 1, 0xff, 1 << 63, math.MaxUint64} {
		if got, want := New().Uint64(v), (offset64^Hash(v))*prime64; got != want {
			t.Errorf("Uint64(%#x) = %#x, want %#x", v, got, want)
		}
	}
	if New().Int64(-2) != New().Uint64(math.MaxUint64-1) || New().Int(-2) != New().Int64(-2) {
		t.Error("Int64 and Int must mix the two's-complement word")
	}
	if New().Float64(math.Copysign(0, -1)) == New().Float64(0) {
		t.Error("Float64 must distinguish -0 from +0")
	}
}

// TestSingleValueChangesSum: every round is a bijection of the running
// state for a fixed value, so changing any one mixed value — at any
// position, to any other value — changes the sum.
func TestSingleValueChangesSum(t *testing.T) {
	base := []uint64{0, 1, 42, 1 << 32, 1 << 63, math.MaxUint64, 0xdeadbeef, 7}
	sum := func(vs []uint64) uint64 {
		h := New()
		for _, v := range vs {
			h = h.Uint64(v)
		}
		return h.Sum()
	}
	want := sum(base)
	for i := range base {
		for _, alt := range []uint64{base[i] + 1, base[i] - 1, base[i] ^ 1<<63, base[i] ^ 1<<31, ^base[i]} {
			vs := append([]uint64(nil), base...)
			vs[i] = alt
			if sum(vs) == want {
				t.Errorf("changing value %d from %#x to %#x left the sum unchanged", i, base[i], alt)
			}
		}
	}

	ref := mixAll(New(), 1, 2, 3, 4.5, false, 6, "seven").Sum()
	for name, got := range map[string]uint64{
		"Uint64":  mixAll(New(), 2, 2, 3, 4.5, false, 6, "seven").Sum(),
		"Int64":   mixAll(New(), 1, -2, 3, 4.5, false, 6, "seven").Sum(),
		"Int":     mixAll(New(), 1, 2, 4, 4.5, false, 6, "seven").Sum(),
		"Float64": mixAll(New(), 1, 2, 3, math.Nextafter(4.5, 5), false, 6, "seven").Sum(),
		"Bool":    mixAll(New(), 1, 2, 3, 4.5, true, 6, "seven").Sum(),
		"Byte":    mixAll(New(), 1, 2, 3, 4.5, false, 7, "seven").Sum(),
		"String":  mixAll(New(), 1, 2, 3, 4.5, false, 6, "seveN").Sum(),
	} {
		if got == ref {
			t.Errorf("changing the %s value left the sum unchanged", name)
		}
	}
}

// TestStringBoundaries: strings are length-prefixed, so moving a byte
// across the boundary of two consecutive strings changes the sum.
func TestStringBoundaries(t *testing.T) {
	if New().String("ab").String("c").Sum() == New().String("a").String("bc").Sum() {
		t.Error(`String("ab")+String("c") collides with String("a")+String("bc")`)
	}
	if New().String("").String("x").Sum() == New().String("x").String("").Sum() {
		t.Error(`String("")+String("x") collides with String("x")+String("")`)
	}
}
