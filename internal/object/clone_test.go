package object

import (
	"fmt"
	"reflect"
	"testing"

	"edm/internal/flash"
)

// TestCloneIsIndependent clones a store with deleted slots and spilled
// extents onto a clone of its device, into new buffers and into a
// fuller store's: each copy must digest the same, behave the same, and
// leave the original untouched when it alone changes.
func TestCloneIsIndependent(t *testing.T) {
	for _, dst := range []*Store{nil, fullStore(t)} {
		st := newStore(t)
		for id := ID(1); id <= 8; id++ {
			idx := mustCreate(t, st, id, 3*4096)
			if _, err := st.PopulateAt(idx); err != nil {
				t.Fatal(err)
			}
		}
		idx, _ := slotOf(st, 3)
		st.DeleteIndexed(idx)
		idx, _ = slotOf(st, 5)
		if _, err := st.WriteAt(idx, 0, 20*4096); err != nil { // grows into a spill extent
			t.Fatal(err)
		}
		digest := func(s *Store) uint64 { return s.StateDigest() }
		var ssd *flash.SSD
		if dst != nil {
			ssd = dst.SSD()
		}
		c := st.Clone(st.SSD().Clone(ssd), dst)
		if digest(c) != digest(st) {
			t.Fatal("clone digests differ")
		}
		before := digest(st)
		mutate := func(s *Store) {
			idx := mustCreate(t, s, 42, 5*4096)
			if _, err := s.WriteAt(idx, 0, 5*4096); err != nil {
				t.Fatal(err)
			}
			old, _ := slotOf(s, 5)
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
}

// fullStore is a store holding more objects, spills and free slots than
// the tests' clones: a donated buffer set longer than any copy put
// into it.
func fullStore(t *testing.T) *Store {
	t.Helper()
	st := newStore(t)
	for id := ID(100); id < 130; id++ {
		idx := mustCreate(t, st, id, 2*4096)
		if _, err := st.WriteAt(idx, 0, 6*4096); err != nil {
			t.Fatal(err)
		}
	}
	for id := ID(100); id < 130; id += 3 {
		idx, _ := slotOf(st, id)
		st.DeleteIndexed(idx)
	}
	st.SortedIndices()
	return st
}

// TestResetIsNew requires Reset of a used store to build exactly the
// store NewStore does.
func TestResetIsNew(t *testing.T) {
	st := fullStore(t)
	want := NewStore(st.SSD())
	st.Reset(st.SSD())
	requireSameElements(t, want, st, storeFields)
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
	"sorted": fieldIndex, "sortedOK": fieldIndex,
	"allocBuf": fieldProbe,
}

func TestFieldsAreClassified(t *testing.T) {
	requireClassified(t, reflect.TypeOf(Store{}), storeFields)
	st := newStore(t)
	for id := ID(1); id <= 4; id++ {
		mustCreate(t, st, id, 3*4096)
	}
	idx, _ := slotOf(st, 2)
	if _, err := st.WriteAt(idx, 0, 20*4096); err != nil { // a spill extent
		t.Fatal(err)
	}
	st.SortedIndices()
	requireNoSharedMemory(t, st, st.Clone(st.SSD().Clone(nil), nil), storeFields)
	dst := fullStore(t)
	c := st.Clone(st.SSD().Clone(dst.SSD()), dst)
	requireNoSharedMemory(t, st, c, storeFields)
	requireSameElements(t, st, c, storeFields)
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
