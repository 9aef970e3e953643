package cluster

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"edm/internal/migration"
	"edm/internal/telemetry"
)

// reachesCluster returns the path to the first *Cluster in v's value
// graph, following pointers, interfaces, struct fields, map entries and
// slice elements up to their capacity; a func value fails too, since
// its captures cannot be searched. It returns "" when there is none.
func reachesCluster(v reflect.Value, path string, seen map[uintptr]bool) string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return ""
		}
		if v.Type() == reflect.TypeOf((*Cluster)(nil)) {
			return path
		}
		if seen[v.Pointer()] {
			return ""
		}
		seen[v.Pointer()] = true
		return reachesCluster(v.Elem(), path, seen)
	case reflect.Interface:
		if v.IsNil() {
			return ""
		}
		return reachesCluster(v.Elem(), path, seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := reachesCluster(v.Field(i), path+"."+v.Type().Field(i).Name, seen); p != "" {
				return p
			}
		}
	case reflect.Slice:
		if v.IsNil() {
			return ""
		}
		v = v.Slice3(0, v.Cap(), v.Cap())
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if p := reachesCluster(v.Index(i), fmt.Sprintf("%s[%d]", path, i), seen); p != "" {
				return p
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if p := reachesCluster(it.Value(), fmt.Sprintf("%s[%v]", path, it.Key()), seen); p != "" {
				return p
			}
		}
	case reflect.Func:
		if !v.IsNil() {
			return path + " (a func)"
		}
	}
	return ""
}

// TestReleasedScratchReachesNoCluster releases a traced, migrating
// closed-loop run, hands its scratch to an open-loop run, and releases
// that one too: neither scratch may reach a cluster, so an idle pooled
// Scratch pins none.
func TestReleasedScratchReachesNoCluster(t *testing.T) {
	tr := tinyTrace(t, 21)
	scr := &Scratch{}
	for _, openLoop := range []float64{0, 2000} {
		cfg := forkConfig(MigrateMidpoint)
		cfg.OpenLoopRate, cfg.Scratch = openLoop, scr
		cl, err := New(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		cl.SetRecorder(telemetry.Nop{})
		cl.SetPlanner(migration.NewHDF(migration.DefaultConfig()))
		if _, err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		if cl.migrations == 0 {
			t.Fatal("the run never migrated, so the planner snapshot is unused")
		}
		scr = cl.Release()
		if len(scr.devs) != cfg.OSDs || len(scr.donePool) == 0 {
			t.Fatalf("released scratch holds %d devices and %d completion records", len(scr.devs), len(scr.donePool))
		}
		if p := reachesCluster(reflect.ValueOf(scr), "Scratch", map[uintptr]bool{}); p != "" {
			t.Fatalf("open-loop rate %v: the released scratch reaches a cluster through %s", openLoop, p)
		}
	}
}

// TestForkAndBuildRecycleDevices hands a released run's devices to a
// fork and then to a build: each must take over the donated OSDs and
// their SSDs (whose Clone and Reset reuse the tables, as the flash
// tests pin), empty the scratch so no buffer has two owners, and still
// continue or run byte-identically.
func TestForkAndBuildRecycleDevices(t *testing.T) {
	ctx := context.Background()
	tr := tinyTrace(t, 22)
	hdf := forkPolicies[2]
	want := resultBytes(buildFor(t, hdf, tr).Run())

	donor := buildFor(t, hdf, tr)
	if _, err := donor.Run(); err != nil {
		t.Fatal(err)
	}
	scr := donor.Release()
	devs, ssd := scr.devs, scr.devs[0].SSD

	orig := buildFor(t, hdf, tr)
	if err := orig.RunPrefix(ctx); err != nil {
		t.Fatal(err)
	}
	fork, err := orig.Fork(scr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*scr, Scratch{}) {
		t.Fatal("the fork left buffers in the scratch it adopted")
	}
	for i, o := range fork.osds {
		if o != devs[i] {
			t.Fatalf("fork's OSD %d is not the donated one", i)
		}
	}
	if fork.osds[0].SSD != ssd {
		t.Fatal("fork's SSD is not the donated one")
	}
	requireSameState(t, fork, orig)
	fork.SetPlanner(hdf.planner())
	if got := resultBytes(fork.ContinueContext(ctx)); got != want {
		t.Fatal("fork into donated devices: result differs from the unforked run")
	}

	cfg := forkConfig(hdf.mode)
	cfg.Scratch = fork.Release()
	built, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if built.osds[0] != devs[0] || built.osds[0].SSD != ssd {
		t.Fatal("New did not build on the donated devices")
	}
	built.SetPlanner(hdf.planner())
	if got := resultBytes(built.Run()); got != want {
		t.Fatal("build on donated devices: result differs from a fresh build's")
	}

	// A smaller build leaves the other devices beyond its slice's
	// length, and a larger one takes them back.
	cfg.OSDs, cfg.Scratch = 8, built.Release()
	small, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg.OSDs, cfg.Scratch = 16, small.Release()
	big, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range big.osds {
		if o != devs[i] {
			t.Fatalf("after a smaller build, OSD %d is not the donated one", i)
		}
	}
}
