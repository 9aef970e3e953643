package prefetch

import (
	"testing"
	"unsafe"
)

// TestLineNeitherWritesNorEscapes hints a stack array: the hint must
// leave the memory as it was, and must not move the array to the heap
// (Line is declared noescape, so the replay loop can hint any record).
func TestLineNeitherWritesNorEscapes(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		var buf [16]int64
		for i := range buf {
			buf[i] = int64(i)
		}
		for i := range buf {
			Line(unsafe.Pointer(&buf[i]))
		}
		for i, v := range buf {
			if v != int64(i) {
				t.Fatalf("word %d reads %d after the hint", i, v)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("hinting a stack array allocates %.1f objects, want 0", allocs)
	}
}
