package flash

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestCloneIsIndependent drives a device through GC, clones it, and
// requires the copy to digest the same state, to behave the same under
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
	requireNoSharedMemory(t, s, s.Clone(), ssdFields)
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
