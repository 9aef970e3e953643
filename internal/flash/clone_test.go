package flash

import (
	"math/rand"
	"testing"
)

// TestCloneIsIndependent drives a device through GC, clones it, and
// requires the copy to export the same state, to behave the same under
// the same writes, and to leave the original untouched when it alone
// is written.
func TestCloneIsIndependent(t *testing.T) {
	s := tiny(t)
	r := rand.New(rand.NewSource(1))
	write := func(d *SSD, r *rand.Rand, n int) {
		for i := 0; i < n; i++ {
			if _, err := d.Write(r.Int63n(d.MaxLivePages())); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(s, r, 500)
	if s.Stats().Erases == 0 {
		t.Fatal("no GC before the clone")
	}
	c := s.Clone()
	if c.ExportState() != s.ExportState() {
		t.Fatal("clone exports a different state")
	}
	before := s.ExportState()
	write(c, rand.New(rand.NewSource(2)), 300)
	if s.ExportState() != before {
		t.Fatal("writing the clone changed the original")
	}
	write(s, rand.New(rand.NewSource(2)), 300)
	if c.ExportState() != s.ExportState() {
		t.Fatal("clone and original diverged under the same writes")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
