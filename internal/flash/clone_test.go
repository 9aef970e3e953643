package flash

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestCloneIsIndependent drives a device through GC, clones it into
// new buffers and into a larger, written device's, and requires each
// copy to digest the same state, to behave the same under the same
// writes, and to leave the original untouched when it alone is written.
func TestCloneIsIndependent(t *testing.T) {
	write := func(d *SSD, r *rand.Rand, n int) {
		for i := 0; i < n; i++ {
			if _, err := d.Write(r.Int63n(d.MaxLivePages())); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, dst := range []*SSD{nil, worn(t)} {
		s := tiny(t)
		write(s, rand.New(rand.NewSource(1)), 500)
		if s.Stats().Erases == 0 {
			t.Fatal("no GC before the clone")
		}
		c := s.Clone(dst)
		if c.StateDigest() != s.StateDigest() {
			t.Fatal("clone digests a different state")
		}
		before := s.StateDigest()
		write(c, rand.New(rand.NewSource(2)), 300)
		if s.StateDigest() != before {
			t.Fatal("writing the clone changed the original")
		}
		write(s, rand.New(rand.NewSource(2)), 300)
		if c.StateDigest() != s.StateDigest() {
			t.Fatal("clone and original diverged under the same writes")
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// worn is a device with tiny's block size and more blocks, written
// through GC: a donated buffer set whose every table is at least as
// long as the copy put into it and full of other contents.
func worn(t *testing.T) *SSD {
	t.Helper()
	s, err := New(Config{PageSize: 4096, PagesPerBlock: 8, Blocks: 40, GCLowBlocks: 2, GCHighBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		if _, err := s.Write(r.Int63n(s.MaxLivePages())); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestResetIsNew requires Reset of a worn device to build exactly the
// device New does, and to reuse its buffers.
func TestResetIsNew(t *testing.T) {
	s := worn(t)
	l2p := &s.l2p[0]
	want := tiny(t)
	if err := s.Reset(want.Config()); err != nil {
		t.Fatal(err)
	}
	requireSameElements(t, want, s, ssdFields)
	if &s.l2p[0] != l2p {
		t.Error("Reset allocated a new mapping table where the old one was large enough")
	}
}

// The roles of a field in Clone and StateDigest.
const (
	fieldSealed = "sealed and cloned"
	fieldConfig = "fixed config"
	fieldIndex  = "derived index or cache, rebuilt or cloned"
	fieldProbe  = "probe or scratch, neither cloned nor sealed"
)

// ssdFields and blockFields classify every field of an SSD and of its
// block metadata: TestFieldsAreClassified fails on a new field until it
// is named here.
var ssdFields = map[string]string{
	"cfg": fieldConfig, "totalPages": fieldConfig,
	"l2p": fieldSealed, "p2l": fieldSealed, "blocks": fieldSealed, "free": fieldSealed,
	"active": fieldSealed, "gcActive": fieldSealed, "buckets": fieldSealed,
	"livePages": fieldSealed, "opClock": fieldSealed, "stats": fieldSealed,
	"probe": fieldProbe,
}

var blockFields = map[string]string{
	"state": fieldSealed, "validCount": fieldSealed, "writePtr": fieldSealed, "lastWrite": fieldSealed,
	"bucketPos": fieldIndex,
}

func TestFieldsAreClassified(t *testing.T) {
	requireClassified(t, reflect.TypeOf(SSD{}), ssdFields)
	requireClassified(t, reflect.TypeOf(block{}), blockFields)
	s := tiny(t)
	for i := int64(0); i < 400; i++ {
		if _, err := s.Write(i % s.MaxLivePages()); err != nil {
			t.Fatal(err)
		}
	}
	requireNoSharedMemory(t, s, s.Clone(nil), ssdFields)
	c := s.Clone(worn(t))
	requireNoSharedMemory(t, s, c, ssdFields)
	requireSameElements(t, s, c, ssdFields)
	if n := testing.AllocsPerRun(10, func() { s.Clone(c) }); n != 0 {
		t.Errorf("a clone into a large enough device allocated %v times", n)
	}
}

// sharesMemory reports whether a and b, two values of one type, hold
// the same map or slice backing array, searching slices of slices.
func sharesMemory(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Map:
		return !a.IsNil() && a.Pointer() == b.Pointer()
	case reflect.Slice:
		if a.Cap() > 0 && b.Cap() > 0 && a.Pointer() == b.Pointer() {
			return true
		}
		if a.Type().Elem().Kind() == reflect.Slice {
			for i := 0; i < a.Len() && i < b.Len(); i++ {
				if sharesMemory(a.Index(i), b.Index(i)) {
					return true
				}
			}
		}
	}
	return false
}

// requireClassified fails on a field of typ that fields does not name,
// and on a name that is no field of typ.
func requireClassified(t *testing.T, typ reflect.Type, fields map[string]string) {
	t.Helper()
	names := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if names[name] = true; fields[name] == "" {
			t.Errorf("%s.%s is unclassified: decide whether Clone copies it and StateDigest seals it, then name it here", typ.Name(), name)
		}
	}
	for name := range fields {
		if !names[name] {
			t.Errorf("%s has no field %s", typ.Name(), name)
		}
	}
}

// requireNoSharedMemory fails when a cloned field of the struct that
// clone points to shares memory with orig's.
func requireNoSharedMemory(t *testing.T, orig, clone any, fields map[string]string) {
	t.Helper()
	ov, cv := reflect.ValueOf(orig).Elem(), reflect.ValueOf(clone).Elem()
	for i := 0; i < ov.NumField(); i++ {
		name := ov.Type().Field(i).Name
		if fields[name] != fieldConfig && sharesMemory(ov.Field(i), cv.Field(i)) {
			t.Errorf("clone shares %s with its original", name)
		}
	}
}

// requireSameElements fails when a cloned or sealed field of the struct
// that got points to differs from want's in any element: a copy into
// donated buffers must leave none of their old contents behind. Nil and
// empty slices count as equal.
func requireSameElements(t *testing.T, want, got any, fields map[string]string) {
	t.Helper()
	wv, gv := reflect.ValueOf(want).Elem(), reflect.ValueOf(got).Elem()
	for i := 0; i < wv.NumField(); i++ {
		name := wv.Type().Field(i).Name
		if fields[name] == fieldProbe || fields[name] == fieldConfig && wv.Field(i).Kind() == reflect.Pointer {
			continue
		}
		if w, g := fmt.Sprint(wv.Field(i)), fmt.Sprint(gv.Field(i)); w != g {
			t.Errorf("%s differs:\n  got  %.200s\n  want %.200s", name, g, w)
		}
	}
}
