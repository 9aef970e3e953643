package object

import (
	"reflect"
	"testing"
)

// TestCloneIsIndependent clones a store with deleted slots and spilled
// extents onto a clone of its device: the copy must digest the same,
// behave the same, and leave the original untouched when it alone
// changes.
func TestCloneIsIndependent(t *testing.T) {
	st := newStore(t)
	for id := ID(1); id <= 8; id++ {
		idx := mustCreate(t, st, id, 3*4096)
		if _, err := st.PopulateAt(idx); err != nil {
			t.Fatal(err)
		}
	}
	idx, _ := st.Lookup(3)
	st.DeleteIndexed(idx)
	idx, _ = st.Lookup(5)
	if _, err := st.WriteAt(idx, 0, 20*4096); err != nil { // grows into a spill extent
		t.Fatal(err)
	}
	digest := func(s *Store) uint64 { return s.StateDigest() }
	c := st.Clone(st.SSD().Clone())
	if digest(c) != digest(st) {
		t.Fatal("clone digests differ")
	}
	before := digest(st)
	mutate := func(s *Store) {
		idx := mustCreate(t, s, 42, 5*4096)
		if _, err := s.WriteAt(idx, 0, 5*4096); err != nil {
			t.Fatal(err)
		}
		old, _ := s.Lookup(5)
		s.DeleteIndexed(old)
	}
	mutate(c)
	if digest(st) != before {
		t.Fatal("changing the clone changed the original")
	}
	mutate(st)
	if digest(c) != digest(st) {
		t.Fatal("clone and original diverged under the same changes")
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

// storeFields classifies every Store field: TestFieldsAreClassified
// fails on a new field until it is named here.
var storeFields = map[string]string{
	"ssd": fieldConfig, "pageSize": fieldConfig,
	"ids": fieldSealed, "sizes": fieldSealed, "npages": fieldSealed, "ext0": fieldSealed,
	"spill": fieldSealed, "inUse": fieldSealed, "freeSlots": fieldSealed, "live": fieldSealed,
	"free": fieldSealed, "usedPgs": fieldSealed,
	"byID": fieldIndex, "sorted": fieldIndex, "sortedOK": fieldIndex,
	"allocBuf": fieldProbe,
}

func TestFieldsAreClassified(t *testing.T) {
	requireClassified(t, reflect.TypeOf(Store{}), storeFields)
	st := newStore(t)
	for id := ID(1); id <= 4; id++ {
		mustCreate(t, st, id, 3*4096)
	}
	idx, _ := st.Lookup(2)
	if _, err := st.WriteAt(idx, 0, 20*4096); err != nil { // a spill extent
		t.Fatal(err)
	}
	st.SortedIndices()
	requireNoSharedMemory(t, st, st.Clone(st.SSD().Clone()), storeFields)
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
