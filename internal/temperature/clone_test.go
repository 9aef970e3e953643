package temperature

import (
	"reflect"
	"testing"

	"edm/internal/sim"
)

func TestCloneIsIndependent(t *testing.T) {
	tr := New(sim.Minute)
	for s := Slot(0); s < 4; s++ {
		tr.InstallAt(s, ObjectID(s+10))
		tr.TouchWrite(s, int(s)+1, sim.Time(s)*sim.Minute)
	}
	tr.ForgetAt(2)
	digest := func(x *Tracker) uint64 { return x.StateDigest() }
	c := tr.Clone()
	if digest(c) != digest(tr) {
		t.Fatal("clone digests differ")
	}
	before := digest(tr)
	mutate := func(x *Tracker) {
		x.TouchRead(1, 7, 9*sim.Minute)
		x.InstallAt(5, 99)
		x.ResetWindow()
	}
	mutate(c)
	if digest(tr) != before {
		t.Fatal("changing the clone changed the original")
	}
	mutate(tr)
	if digest(c) != digest(tr) {
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

// trackerFields classifies every Tracker field: TestFieldsAreClassified
// fails on a new field until it is named here.
var trackerFields = map[string]string{
	"interval": fieldSealed, "live": fieldSealed,
	"ids": fieldSealed, "used": fieldSealed, "epoch": fieldSealed, "wTemp": fieldSealed,
	"tTemp": fieldSealed, "wAcc": fieldSealed, "tAcc": fieldSealed, "winW": fieldSealed,
	"cumW": fieldSealed, "cumR": fieldSealed,
}

func TestFieldsAreClassified(t *testing.T) {
	requireClassified(t, reflect.TypeOf(Tracker{}), trackerFields)
	tr := New(sim.Minute)
	for s := Slot(0); s < 4; s++ {
		tr.InstallAt(s, ObjectID(s+10))
		tr.TouchWrite(s, 1, 0)
	}
	requireNoSharedMemory(t, tr, tr.Clone(), trackerFields)
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
