package raid

import (
	"testing"
	"testing/quick"
)

func geom() Geometry { return Geometry{K: 4, StripeUnit: 64 << 10} }

func TestValidate(t *testing.T) {
	if err := geom().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, g := range []Geometry{{K: 2, StripeUnit: 1}, {K: 4, StripeUnit: 0}} {
		if err := g.Validate(); err == nil {
			t.Fatalf("%+v should be rejected", g)
		}
	}
}

func TestParityRotation(t *testing.T) {
	g := geom()
	// Left-symmetric: row 0 → obj 3, row 1 → obj 2, row 2 → obj 1,
	// row 3 → obj 0, row 4 → obj 3 again.
	want := []int{3, 2, 1, 0, 3, 2}
	for row, p := range want {
		if got := g.ParityObj(int64(row)); got != p {
			t.Fatalf("ParityObj(%d) = %d, want %d", row, got, p)
		}
	}
}

func TestDataObjSkipsParity(t *testing.T) {
	g := geom()
	// Row 0: parity on 3; data columns map to 0,1,2.
	for col, want := range []int{0, 1, 2} {
		if got := g.DataObj(0, col); got != want {
			t.Fatalf("DataObj(0,%d) = %d", col, got)
		}
	}
	// Row 3: parity on 0; data columns map to 1,2,3.
	for col, want := range []int{1, 2, 3} {
		if got := g.DataObj(3, col); got != want {
			t.Fatalf("DataObj(3,%d) = %d", col, got)
		}
	}
}

func TestEveryRowHasDistinctObjects(t *testing.T) {
	g := geom()
	for row := int64(0); row < 16; row++ {
		seen := map[int]bool{g.ParityObj(row): true}
		for col := 0; col < g.K-1; col++ {
			o := g.DataObj(row, col)
			if seen[o] {
				t.Fatalf("row %d reuses object %d", row, o)
			}
			seen[o] = true
		}
		if len(seen) != g.K {
			t.Fatalf("row %d covers %d objects", row, len(seen))
		}
	}
}

func TestReadAccessesSingleUnit(t *testing.T) {
	g := geom()
	accs := g.AppendReadAccesses(nil, 0, 8192)
	if len(accs) != 1 {
		t.Fatalf("small read accesses: %+v", accs)
	}
	a := accs[0]
	if a.Obj != 0 || a.Offset != 0 || a.Length != 8192 || a.Write || !a.PreRead || a.IsParity {
		t.Fatalf("access: %+v", a)
	}
}

func TestReadAccessesSpanUnits(t *testing.T) {
	g := geom()
	su := g.StripeUnit
	// Read crossing from column 0 into column 1 of row 0.
	accs := g.AppendReadAccesses(nil, su-100, 200)
	if len(accs) != 2 {
		t.Fatalf("accesses: %+v", accs)
	}
	if accs[0].Obj != 0 || accs[0].Offset != su-100 || accs[0].Length != 100 {
		t.Fatalf("first: %+v", accs[0])
	}
	// Column 1's row-0 unit sits at object offset 0: every object holds
	// one stripe unit per row, at row·StripeUnit.
	if accs[1].Obj != 1 || accs[1].Offset != 0 || accs[1].Length != 100 {
		t.Fatalf("second: %+v", accs[1])
	}
}

func TestSmallWriteIsReadModifyWrite(t *testing.T) {
	g := geom()
	accs := g.AppendWriteAccesses(nil, 0, 4096)
	if len(accs) != 2 {
		t.Fatalf("small write should touch data+parity: %+v", accs)
	}
	data, parity := accs[0], accs[1]
	if data.Obj != 0 || !data.Write || !data.PreRead || data.IsParity {
		t.Fatalf("data access: %+v", data)
	}
	if parity.Obj != 3 || !parity.Write || !parity.PreRead || !parity.IsParity {
		t.Fatalf("parity access: %+v", parity)
	}
	if parity.Length != 4096 {
		t.Fatalf("parity length %d", parity.Length)
	}
}

func TestFullRowWriteSkipsPreReads(t *testing.T) {
	g := geom()
	rowBytes := g.StripeUnit * int64(g.K-1)
	accs := g.AppendWriteAccesses(nil, 0, rowBytes)
	if len(accs) != 4 {
		t.Fatalf("full-row write: %+v", accs)
	}
	for _, a := range accs {
		if a.PreRead {
			t.Fatalf("full-row write must not pre-read: %+v", a)
		}
		if !a.Write {
			t.Fatalf("non-write access in write: %+v", a)
		}
	}
}

func TestWriteSpansRows(t *testing.T) {
	g := geom()
	rowBytes := g.StripeUnit * int64(g.K-1)
	// Write crossing a row boundary: parity of both rows is touched.
	accs := g.AppendWriteAccesses(nil, rowBytes-4096, 8192)
	parities := map[int]bool{}
	for _, a := range accs {
		if a.IsParity {
			parities[a.Obj] = true
		}
	}
	if len(parities) != 2 {
		t.Fatalf("row-crossing write should touch 2 parity objects: %+v", accs)
	}
}

func TestWriteBytesConserved(t *testing.T) {
	g := geom()
	for _, tc := range []struct{ off, n int64 }{
		{0, 1}, {0, 4096}, {1000, 100000}, {g.StripeUnit - 1, 2}, {0, g.StripeUnit * 9},
	} {
		var dataBytes int64
		for _, a := range g.AppendWriteAccesses(nil, tc.off, tc.n) {
			if !a.IsParity {
				dataBytes += a.Length
			}
		}
		if dataBytes != tc.n {
			t.Fatalf("write (%d,%d): data bytes %d", tc.off, tc.n, dataBytes)
		}
	}
}

func TestZeroLengthAccesses(t *testing.T) {
	g := geom()
	if accs := g.AppendWriteAccesses(nil, 0, 0); accs != nil {
		t.Fatalf("zero write: %+v", accs)
	}
	if accs := g.AppendReadAccesses(nil, 0, 0); len(accs) != 0 {
		t.Fatalf("zero read: %+v", accs)
	}
}

func TestNegativePanics(t *testing.T) {
	g := geom()
	for _, fn := range []func(){
		func() { g.AppendReadAccesses(nil, -1, 10) },
		func() { g.AppendWriteAccesses(nil, -1, 10) },
		func() { g.ParityObj(-1) },
		func() { g.DataObj(0, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestObjectDataBytesBoundsAccesses(t *testing.T) {
	g := geom()
	fileSize := int64(3<<20 + 12345)
	bound := g.ObjectDataBytes(fileSize, 0)
	// Probe many writes across the file: no access may exceed the bound.
	for off := int64(0); off < fileSize; off += 97 * 1024 {
		n := fileSize - off
		if n > 256*1024 {
			n = 256 * 1024
		}
		for _, a := range g.AppendWriteAccesses(nil, off, n) {
			if a.Offset+a.Length > bound {
				t.Fatalf("access %+v exceeds per-object bound %d", a, bound)
			}
		}
	}
}

// Property: data segments tile the requested range exactly, in order,
// for any geometry.
func TestPropertyReadSegmentsTileRange(t *testing.T) {
	f := func(kRaw, suRaw uint8, offRaw, nRaw uint16) bool {
		k := int(kRaw)%6 + 3
		su := int64(suRaw)%512 + 1
		g := Geometry{K: k, StripeUnit: su}
		off := int64(offRaw)
		n := int64(nRaw) % 4096
		var total int64
		for _, a := range g.AppendReadAccesses(nil, off, n) {
			if a.Length <= 0 || a.Obj < 0 || a.Obj >= k {
				return false
			}
			total += a.Length
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: a write never programs its own parity column as data.
func TestPropertyParityDisjointFromData(t *testing.T) {
	f := func(kRaw uint8, offRaw, nRaw uint16) bool {
		k := int(kRaw)%6 + 3
		g := Geometry{K: k, StripeUnit: 4096}
		off, n := int64(offRaw), int64(nRaw)%20000+1
		rowBytes := g.StripeUnit * int64(k-1)
		byRow := map[int64]map[int]bool{}
		cursor := off
		for _, a := range g.AppendWriteAccesses(nil, off, n) {
			row := a.Offset / g.StripeUnit
			if byRow[row] == nil {
				byRow[row] = map[int]bool{}
			}
			if a.IsParity {
				if a.Obj != g.ParityObj(row) {
					return false
				}
			} else if a.Obj == g.ParityObj(row) {
				return false
			}
		}
		_ = cursor
		_ = rowBytes
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
