package cluster

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// The parts of a Cluster's state (see its type comment). Every field of
// Cluster and OSD must be named in clusterParts or osdParts, so that a
// new field fails TestStatePartsAreClassified until someone decides how
// Fork copies it and which section of ExportState seals it.
const (
	partBuild    = "build"    // fixed by New, shared read-only by forks
	partCounters = "counters" // plain values, copied by assignment and sealed
	partCopied   = "copied"   // a reference that Fork deep-copies
	partObserver = "observer" // observers, hooks and the policy: a fork starts without them
	partScratch  = "scratch"  // reusable buffers, never shared with a fork
)

var clusterParts = map[string]string{
	"counters": partCounters,
	"build":    partBuild,
	"scratch":  partScratch,

	"eng": partCopied, "osds": partCopied, "remap": partCopied, "stream": partCopied,
	"owner": partCopied, "oslot": partCopied, "moves": partCopied, "failed": partCopied,
	"locked": partCopied, "waiters": partCopied,
	"respSeries": partCopied, "respAll": partCopied, "respMigr": partCopied,

	"planner": partObserver, "wearTicker": partObserver, "ckFn": partObserver, "ckPoll": partObserver,
	"rec": partObserver, "metrics": partObserver, "parked": partObserver, "respHist": partObserver,
}

var osdParts = map[string]string{
	"ID": partBuild, "Group": partBuild,
	"SSD": partCopied, "Store": partCopied, "Tracker": partCopied,
	"busyUntil": partCounters, "load": partCounters, "slowUntil": partCounters, "slowFactor": partCounters,
	"subOps": partCounters, "busyTime": partCounters, "busyAtMig": partCounters,
}

// TestStatePartsAreClassified fails on a Cluster or OSD field that
// belongs to no part, and on a counters field that is not a plain value
// (assignment would share it between a fork and its original).
func TestStatePartsAreClassified(t *testing.T) {
	for _, tc := range []struct {
		typ   reflect.Type
		parts map[string]string
	}{
		{reflect.TypeOf(Cluster{}), clusterParts},
		{reflect.TypeOf(OSD{}), osdParts},
	} {
		names := map[string]bool{}
		for i := 0; i < tc.typ.NumField(); i++ {
			f := tc.typ.Field(i)
			names[f.Name] = true
			switch tc.parts[f.Name] {
			case "":
				t.Errorf("%s.%s belongs to no part: decide how Fork copies it and which section seals it, then classify it",
					tc.typ.Name(), f.Name)
			case partCounters:
				requirePlainValue(t, tc.typ.Name()+"."+f.Name, f.Type)
			}
		}
		for name := range tc.parts {
			if !names[name] {
				t.Errorf("%s has no field %s", tc.typ.Name(), name)
			}
		}
	}
}

func requirePlainValue(t *testing.T, name string, typ reflect.Type) {
	t.Helper()
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int32, reflect.Int64, reflect.Uint64, reflect.Float64:
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			requirePlainValue(t, name+"."+typ.Field(i).Name, typ.Field(i).Type)
		}
	default:
		t.Errorf("%s is a %s, not a plain value", name, typ.Kind())
	}
}

// pausedAfterRound returns an HDF cluster paused between events after
// its migration round, so moves, remap entries and migration-time
// samples are there to be copied.
func pausedAfterRound(t *testing.T) *Cluster {
	t.Helper()
	tr := tinyTrace(t, 15)
	hdf := forkPolicies[2]
	ref := buildFor(t, hdf, tr)
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	c := buildFor(t, hdf, tr)
	if err := c.FastForward(context.Background(), ref.eng.Fired()-10); err != nil {
		t.Fatal(err)
	}
	if c.migrations == 0 || len(c.moves) == 0 || c.migrating {
		t.Fatalf("paused with %d rounds, %d moves, round in flight %v: want one finished round",
			c.migrations, len(c.moves), c.migrating)
	}
	return c
}

// fieldValue returns an addressable, settable view of an unexported
// struct field.
func fieldValue(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// sharesMemory reports whether a and b, two values of one type, hold a
// reference to the same memory: the same pointer, map or slice backing
// array, searched through structs.
func sharesMemory(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Pointer, reflect.Map:
		return !a.IsNil() && a.Pointer() == b.Pointer()
	case reflect.Slice:
		return a.Cap() > 0 && b.Cap() > 0 && a.Pointer() == b.Pointer()
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if sharesMemory(a.Field(i), b.Field(i)) {
				return true
			}
		}
	}
	return false
}

// TestForkCopiesEachPart forks a cluster paused after its migration
// round and checks each part: build shared and equal, counters equal,
// every copied reference (and every OSD's) distinct, no observer
// carried over, and no scratch buffer shared.
func TestForkCopiesEachPart(t *testing.T) {
	c := pausedAfterRound(t)
	f, err := c.Fork(&Scratch{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, f, c)
	cv, fv := reflect.ValueOf(c).Elem(), reflect.ValueOf(f).Elem()
	for i := 0; i < cv.NumField(); i++ {
		name := cv.Type().Field(i).Name
		a, b := fieldValue(cv.Field(i)), fieldValue(fv.Field(i))
		switch clusterParts[name] {
		case partBuild, partCounters:
			if !reflect.DeepEqual(a.Interface(), b.Interface()) {
				t.Errorf("fork's %s differs from the original's", name)
			}
		case partCopied:
			if sharesMemory(a, b) {
				t.Errorf("fork shares %s with the original", name)
			}
		case partObserver:
			if !b.IsZero() {
				t.Errorf("fork carries the original's %s", name)
			}
		case partScratch:
			if sharesMemory(a, b) {
				t.Errorf("fork shares a scratch buffer with the original")
			}
		}
	}
	for i, o := range c.osds {
		ov, dv := reflect.ValueOf(o).Elem(), reflect.ValueOf(f.osds[i]).Elem()
		for j := 0; j < ov.NumField(); j++ {
			name := ov.Type().Field(j).Name
			a, b := fieldValue(ov.Field(j)), fieldValue(dv.Field(j))
			if osdParts[name] == partCopied && sharesMemory(a, b) {
				t.Errorf("fork's osd%d shares %s with the original", i, name)
			}
			if osdParts[name] != partCopied && !reflect.DeepEqual(a.Interface(), b.Interface()) {
				t.Errorf("fork's osd%d.%s differs from the original's", i, name)
			}
		}
	}
}

// perturb changes every plain value in v.
func perturb(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			perturb(fieldValue(v.Field(i)))
		}
	}
}

// TestSealCoversEveryCounter changes one counters field, remap table
// counter or OSD counter at a time in a fork, and requires Diff to
// report exactly the section that seals it: a counter missing from the
// seal would pass snapshot.Verify and diverge silently.
func TestSealCoversEveryCounter(t *testing.T) {
	c := pausedAfterRound(t)
	want := c.ExportState()
	check := func(name, section string, change func(f *Cluster)) {
		t.Helper()
		f, err := c.Fork(nil)
		if err != nil {
			t.Fatal(err)
		}
		change(f)
		diffs := f.ExportState().Diff(want)
		if len(diffs) != 1 || !strings.HasPrefix(diffs[0], section+":") {
			t.Errorf("changing %s: Diff reported %q, want one %q message", name, diffs, section)
		}
	}
	typ := reflect.TypeOf(counters{})
	for i := 0; i < typ.NumField(); i++ {
		check(typ.Field(i).Name, "run counters", func(f *Cluster) {
			perturb(fieldValue(reflect.ValueOf(&f.counters).Elem().Field(i)))
		})
	}
	typ = reflect.TypeOf(remapStats{})
	for i := 0; i < typ.NumField(); i++ {
		check("remapStats."+typ.Field(i).Name, "remap table", func(f *Cluster) {
			perturb(fieldValue(reflect.ValueOf(f.remap).Elem().Field(i)))
		})
	}
	for name, part := range osdParts {
		if part == partCounters {
			check("OSD."+name, "osd3 service queue", func(f *Cluster) {
				perturb(fieldValue(reflect.ValueOf(f.osds[3]).Elem().FieldByName(name)))
			})
		}
	}
}
