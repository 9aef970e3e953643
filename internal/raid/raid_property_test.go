package raid

import (
	"math/rand"
	"testing"
)

// TestPropertyAccessConservation is the raid layer's conservation law:
// for arbitrary geometries and byte ranges, the generated accesses cover
// the requested data exactly once (no gaps, no overlaps, byte counts
// preserved), every stripe row touched by a write carries exactly one
// parity access on that row's rotated parity object, and parity never
// lands on a column holding the row's data.
func TestPropertyAccessConservation(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		g := Geometry{K: rnd.Intn(6) + 3, StripeUnit: int64(1<<uint(rnd.Intn(6)+9)) + int64(rnd.Intn(2))*512}
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: geometry %+v invalid: %v", seed, g, err)
		}
		rowBytes := g.StripeUnit * int64(g.dataCols())
		off := int64(rnd.Intn(int(rowBytes * 3)))
		length := int64(rnd.Intn(int(rowBytes*4)) + 1)

		check := func(kind string, accs []Access) {
			var dataBytes int64
			parityRows := map[int64]int{}
			covered := map[[3]int64]bool{} // (obj, offset, length) must be unique
			for _, a := range accs {
				if a.Length <= 0 || a.Offset < 0 || a.Obj < 0 || a.Obj >= g.K {
					t.Fatalf("seed %d %s: degenerate access %+v", seed, kind, a)
				}
				key := [3]int64{int64(a.Obj), a.Offset, a.Length}
				if covered[key] {
					t.Fatalf("seed %d %s: duplicate access %+v", seed, kind, a)
				}
				covered[key] = true
				row := a.Offset / g.StripeUnit
				if a.IsParity {
					parityRows[row]++
					if want := g.ParityObj(row); a.Obj != want {
						t.Fatalf("seed %d %s: parity for row %d on object %d, want %d", seed, kind, row, a.Obj, want)
					}
				} else {
					dataBytes += a.Length
					if a.Obj == g.ParityObj(row) {
						t.Fatalf("seed %d %s: data access %+v on row %d's parity object", seed, kind, a, row)
					}
				}
			}
			if dataBytes != length {
				t.Fatalf("seed %d %s: accesses carry %d data bytes, request was %d", seed, kind, dataBytes, length)
			}
			for row, n := range parityRows {
				if n != 1 {
					t.Fatalf("seed %d %s: row %d has %d parity accesses", seed, kind, row, n)
				}
			}
			if kind == "write" {
				firstRow, lastRow := off/rowBytes, (off+length-1)/rowBytes
				if got, want := int64(len(parityRows)), lastRow-firstRow+1; got != want {
					t.Fatalf("seed %d write: %d parity rows for %d touched stripe rows", seed, got, want)
				}
			} else if len(parityRows) != 0 {
				t.Fatalf("seed %d read: %d parity accesses on the pure-data path", seed, len(parityRows))
			}
		}
		check("read", g.AppendReadAccesses(nil, off, length))
		check("write", g.AppendWriteAccesses(nil, off, length))
	}
}

// TestPropertyParityRotationCoversAllObjects pins the left-symmetric
// rotation: over any K consecutive stripe rows every object serves as
// the parity column exactly once, so no single device absorbs the
// parity write amplification.
func TestPropertyParityRotationCoversAllObjects(t *testing.T) {
	for k := 3; k <= 8; k++ {
		g := Geometry{K: k, StripeUnit: 4096}
		for start := int64(0); start < 3; start++ {
			seen := map[int]bool{}
			for row := start * int64(k); row < (start+1)*int64(k); row++ {
				p := g.ParityObj(row)
				if seen[p] {
					t.Fatalf("k=%d: object %d is parity twice within %d consecutive rows", k, p, k)
				}
				seen[p] = true
			}
			if len(seen) != k {
				t.Fatalf("k=%d: rotation covered %d of %d objects", k, len(seen), k)
			}
		}
	}
}
