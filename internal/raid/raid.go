// Package raid implements the object-level RAID-5 layout of EDM files
// (§III.A, §III.D): each file's data is striped over its k objects with
// rotating parity, so a write to a byte range touches one or more data
// objects plus, for each stripe row, a parity object (read-modify-write).
//
// The simulator does not store real bytes; what matters for wear and
// latency is which objects receive which page reads and writes per file
// operation. This package computes exactly that fan-out, with real
// intra-object offsets so the flash layer sees realistic overwrite
// patterns.
package raid

import (
	"fmt"
)

// Geometry describes a file's stripe layout. K is the stripe width in
// objects (data + one rotating parity per row); StripeUnit is the bytes
// of consecutive file data placed on one object before moving to the
// next.
type Geometry struct {
	K          int
	StripeUnit int64
}

// Validate reports geometry errors. RAID-5 needs at least 3 columns
// (2 data + parity); K < 3 degenerates and is rejected.
func (g Geometry) Validate() error {
	if g.K < 3 {
		return fmt.Errorf("raid: stripe width %d < 3 cannot carry RAID-5 parity", g.K)
	}
	if g.StripeUnit <= 0 {
		return fmt.Errorf("raid: non-positive stripe unit %d", g.StripeUnit)
	}
	return nil
}

// dataCols returns the number of data columns per row.
func (g Geometry) dataCols() int { return g.K - 1 }

// ParityObj returns the object index that carries parity for a stripe
// row, using the classic left-symmetric rotation: row 0 parks parity on
// object K-1, row 1 on K-2, and so on.
func (g Geometry) ParityObj(row int64) int {
	if row < 0 {
		panic(fmt.Sprintf("raid: negative stripe row %d", row))
	}
	return g.K - 1 - int(row%int64(g.K))
}

// DataObj returns the object index that holds data column col of stripe
// row, skipping the parity column.
func (g Geometry) DataObj(row int64, col int) int {
	if col < 0 || col >= g.dataCols() {
		panic(fmt.Sprintf("raid: data column %d out of range [0,%d)", col, g.dataCols()))
	}
	p := g.ParityObj(row)
	if col < p {
		return col
	}
	return col + 1
}

// Access is one contiguous object byte range touched by a file
// operation. PreRead marks RAID-5 read-modify-write pre-reads: the range
// is read before being written.
type Access struct {
	Obj      int   // object index within the file (0..K-1)
	Offset   int64 // byte offset within that object
	Length   int64
	Write    bool // range is programmed
	PreRead  bool // range is read first (RMW or plain read)
	IsParity bool
}

// AppendReadAccesses appends a file read's per-object ranges (pure data
// reads, no parity involvement) to accs and returns the extended slice. Passing a reused buffer keeps the replay
// hot path allocation-free.
func (g Geometry) AppendReadAccesses(accs []Access, off, length int64) []Access {
	g.mapData(off, length, func(row int64, obj int, objOff, n int64) {
		accs = append(accs, Access{Obj: obj, Offset: objOff, Length: n, PreRead: true})
	})
	return accs
}

// AppendWriteAccesses appends a file write's per-object ranges to accs
// and returns the extended slice. Writes take the RAID-5 small-write
// path: each touched data range is pre-read and written, and each
// touched stripe row's parity range is pre-read and written. Rows
// overwritten in full skip the pre-reads (reconstruct write). Passing a reused buffer keeps the replay hot path
// allocation-free.
func (g Geometry) AppendWriteAccesses(accs []Access, off, length int64) []Access {
	if length <= 0 {
		return accs
	}
	if off < 0 {
		panic(fmt.Sprintf("raid: negative offset %d", off))
	}
	d := int64(g.dataCols())
	rowBytes := g.StripeUnit * d
	for length > 0 {
		row := off / rowBytes
		within := off % rowBytes
		take := rowBytes - within
		if take > length {
			take = length
		}
		fullRow := within == 0 && take == rowBytes

		g.mapData(off, take, func(r int64, obj int, objOff, n int64) {
			accs = append(accs, Access{Obj: obj, Offset: objOff, Length: n, Write: true, PreRead: !fullRow})
		})

		// Parity range: the union of the touched columns' intra-unit
		// spans, clamped to one stripe unit.
		pOff := g.StripeUnit*row + within%g.StripeUnit
		pLen := take
		if pLen > g.StripeUnit {
			pOff = g.StripeUnit * row
			pLen = g.StripeUnit
		}
		accs = append(accs, Access{
			Obj: g.ParityObj(row), Offset: pOff, Length: pLen,
			Write: true, PreRead: !fullRow, IsParity: true,
		})

		off += take
		length -= take
	}
	return accs
}

// mapData walks the data segments of a file byte range, invoking fn with
// (stripe row, object index, object offset, length).
func (g Geometry) mapData(off, length int64, fn func(row int64, obj int, objOff, n int64)) {
	if off < 0 || length < 0 {
		panic(fmt.Sprintf("raid: negative range (%d,%d)", off, length))
	}
	d := int64(g.dataCols())
	rowBytes := g.StripeUnit * d
	for length > 0 {
		row := off / rowBytes
		within := off % rowBytes
		col := within / g.StripeUnit
		inUnit := within % g.StripeUnit
		take := g.StripeUnit - inUnit
		if take > length {
			take = length
		}
		fn(row, g.DataObj(row, int(col)), row*g.StripeUnit+inUnit, take)
		off += take
		length -= take
	}
}

// ObjectDataBytes returns an upper bound on the bytes object obj of a
// fileSize-byte file can be asked to hold (its data and parity rows),
// used to size objects at creation. Every access this package generates
// for the file stays strictly below rows·StripeUnit for every object.
func (g Geometry) ObjectDataBytes(fileSize int64, obj int) int64 {
	if fileSize <= 0 {
		return g.StripeUnit
	}
	d := int64(g.dataCols())
	rowBytes := g.StripeUnit * d
	rows := (fileSize + rowBytes - 1) / rowBytes
	_ = obj
	return rows * g.StripeUnit
}
