package temperature

import (
	"fmt"
	"reflect"
	"testing"

	"edm/internal/object"
	"edm/internal/sim"
)

// TestCloneIsIndependent clones a tracker into new columns and into a
// longer tracker's: each copy must digest the same, behave the same,
// and leave the original untouched when it alone changes.
func TestCloneIsIndependent(t *testing.T) {
	for _, dst := range []*Tracker{nil, longTracker()} {
		st, tr := newStore(t), New(sim.Minute)
		for s := Slot(0); s < 4; s++ {
			tr.InstallAt(create(t, st, object.ID(s+10)))
			tr.TouchWrite(s, int(s)+1, sim.Time(s)*sim.Minute)
		}
		st.DeleteIndexed(2)
		digest := func(x *Tracker) uint64 { return x.StateDigest(st) }
		c := tr.Clone(dst)
		if digest(c) != digest(tr) {
			t.Fatal("clone digests differ")
		}
		before := digest(tr)
		mutate := func(x *Tracker) {
			x.TouchRead(1, 7, 9*sim.Minute)
			x.InstallAt(5)
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
}

// longTracker has more rows, all touched, than the tests' clones: a
// donated column set longer than any copy put into it.
func longTracker() *Tracker {
	tr := New(sim.Second)
	for s := Slot(0); s < 12; s++ {
		tr.InstallAt(s)
		tr.TouchWrite(s, 3, sim.Time(s)*sim.Second)
		tr.TouchRead(s, 2, sim.Time(s)*sim.Second)
	}
	return tr
}

// TestResetIsNew requires Reset of a used tracker to build exactly the
// tracker New does.
func TestResetIsNew(t *testing.T) {
	tr := longTracker()
	tr.Reset(sim.Minute)
	requireSameElements(t, New(sim.Minute), tr, trackerFields)
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
	"interval": fieldSealed, "epoch": fieldSealed, "wTemp": fieldSealed,
	"tTemp": fieldSealed, "wAcc": fieldSealed, "tAcc": fieldSealed, "winW": fieldSealed,
	"cumW": fieldSealed, "cumR": fieldSealed,
}

func TestFieldsAreClassified(t *testing.T) {
	requireClassified(t, reflect.TypeOf(Tracker{}), trackerFields)
	tr := New(sim.Minute)
	for s := Slot(0); s < 4; s++ {
		tr.InstallAt(s)
		tr.TouchWrite(s, 1, 0)
	}
	requireNoSharedMemory(t, tr, tr.Clone(nil), trackerFields)
	c := tr.Clone(longTracker())
	requireNoSharedMemory(t, tr, c, trackerFields)
	requireSameElements(t, tr, c, trackerFields)
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
