package remap

import (
	"reflect"
	"testing"

	"edm/internal/object"
)

func TestCloneIsIndependent(t *testing.T) {
	tb := New()
	tb.Record(3, 0, 1)
	tb.Record(-7, 2, 5) // overflow entry
	tb.Record(3, 0, 0)  // back home
	tb.Record(9, 1, 2)
	digest := func(x *Table) uint64 { return x.StateDigest() }
	c := tb.Clone()
	if digest(c) != digest(tb) || c.Stats() != tb.Stats() {
		t.Fatal("clone differs")
	}
	before, entries := digest(tb), tb.Entries()
	mutate := func(x *Table) {
		x.Record(-7, 2, 2)
		x.Record(1<<23, 0, 3)
		x.Record(4, 1, 3)
	}
	mutate(c)
	if digest(tb) != before || !reflect.DeepEqual(tb.Entries(), entries) {
		t.Fatal("changing the clone changed the original")
	}
	mutate(tb)
	if digest(c) != digest(tb) || c.Stats() != tb.Stats() || c.Lookup(object.ID(1<<23), 9) != 3 {
		t.Fatal("clone and original diverged under the same changes")
	}
}

// The roles of a field in Clone and StateDigest.
const (
	fieldSealed = "sealed and cloned"
	fieldConfig = "fixed config"
	fieldIndex  = "derived index or cache, rebuilt or cloned"
	fieldProbe  = "probe or scratch, neither cloned nor sealed"
)

// tableFields classifies every Table field: TestFieldsAreClassified
// fails on a new field until it is named here.
var tableFields = map[string]string{
	"dense": fieldSealed, "overflow": fieldSealed, "entries": fieldSealed,
	"moves": fieldSealed, "inserts": fieldSealed, "updates": fieldSealed, "removals": fieldSealed,
	"peakEntries": fieldSealed,
}

func TestFieldsAreClassified(t *testing.T) {
	requireClassified(t, reflect.TypeOf(Table{}), tableFields)
	tb := New()
	tb.Record(3, 0, 1)
	tb.Record(-7, 2, 5)
	requireNoSharedMemory(t, tb, tb.Clone(), tableFields)
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
