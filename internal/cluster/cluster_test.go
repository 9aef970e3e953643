package cluster

import (
	"testing"

	"edm/internal/migration"
	"edm/internal/object"
	"edm/internal/sim"
	"edm/internal/trace"
)

// locate returns the OSD the owner column names for a traced object,
// or −1 for an id outside the trace.
func (c *Cluster) locate(id object.ID) int {
	if oi := c.indexOf(id); oi >= 0 {
		return int(c.owner[oi])
	}
	return -1
}

// storeSlot returns the live slot of st holding id, read from the
// store's own slots and not from the cluster's tables.
func storeSlot(st *object.Store, id object.ID) (object.Index, bool) {
	for _, idx := range st.SortedIndices() {
		if st.IDAt(idx) == id {
			return idx, true
		}
	}
	return object.NoIndex, false
}

// tinyTrace builds a small but non-trivial workload: enough skew for
// migration to have something to do, small enough for fast tests.
func tinyTrace(t *testing.T, seed uint64) *trace.Trace {
	t.Helper()
	p, ok := trace.LookupProfile("home02")
	if !ok {
		t.Fatal("home02 missing")
	}
	p = p.Scaled(400) // ~27 files, ~10.5k ops
	tr, err := trace.Generate(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func testConfig(osds int) Config {
	return Config{
		OSDs:           osds,
		Groups:         4,
		ObjectsPerFile: 4,
		WarmupDisabled: true, // tests value speed; warm-up has its own test
		Seed:           1,
	}
}

func runPolicy(t *testing.T, cfg Config, tr *trace.Trace, planner migration.Planner) *Result {
	t.Helper()
	cl, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if planner != nil {
		cl.SetPlanner(planner)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBaselineRunCompletes(t *testing.T) {
	tr := tinyTrace(t, 1)
	res := runPolicy(t, testConfig(16), tr, nil)
	if res.Completed != len(tr.Records) {
		t.Fatalf("completed %d of %d records", res.Completed, len(tr.Records))
	}
	if res.Rejected != 0 {
		t.Fatalf("rejected %d operations", res.Rejected)
	}
	if res.Makespan <= 0 || res.ThroughputOps <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.AggregateErases == 0 {
		t.Fatal("no erases — workload too light to exercise GC")
	}
	if len(res.EraseCounts) != 16 || len(res.Utilizations) != 16 {
		t.Fatalf("per-OSD slices wrong length")
	}
	if res.Policy != "baseline" {
		t.Fatalf("policy name %q", res.Policy)
	}
	if res.MovedObjects != 0 || res.Migrations != 0 {
		t.Fatal("baseline must not migrate")
	}
}

func TestRunTwiceFails(t *testing.T) {
	tr := tinyTrace(t, 1)
	cl, err := New(testConfig(16), tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestDeterminism(t *testing.T) {
	tr1 := tinyTrace(t, 3)
	tr2 := tinyTrace(t, 3)
	cfg := testConfig(16)
	cfg.Migration = MigrateMidpoint
	a := runPolicy(t, cfg, tr1, migration.NewHDF(migration.DefaultConfig()))
	b := runPolicy(t, cfg, tr2, migration.NewHDF(migration.DefaultConfig()))
	if a.Makespan != b.Makespan || a.AggregateErases != b.AggregateErases ||
		a.MovedObjects != b.MovedObjects || a.Completed != b.Completed {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
	for i := range a.EraseCounts {
		if a.EraseCounts[i] != b.EraseCounts[i] {
			t.Fatalf("per-OSD erases differ at %d", i)
		}
	}
}

func TestUtilizationBelowTarget(t *testing.T) {
	tr := tinyTrace(t, 1)
	res := runPolicy(t, testConfig(16), tr, nil)
	for i, u := range res.Utilizations {
		if u > 0.75 {
			t.Fatalf("OSD %d utilization %v far above 0.7 sizing target", i, u)
		}
	}
}

func TestMidpointMigrationMovesObjects(t *testing.T) {
	tr := tinyTrace(t, 2)
	cfg := testConfig(16)
	cfg.Migration = MigrateMidpoint
	res := runPolicy(t, cfg, tr, migration.NewHDF(migration.DefaultConfig()))
	if res.Migrations != 1 {
		t.Fatalf("migrations = %d, want 1", res.Migrations)
	}
	if res.MovedObjects == 0 {
		t.Fatal("midpoint HDF moved nothing")
	}
	if res.MigrationEnd <= res.MigrationStart {
		t.Fatalf("migration window degenerate: %v..%v", res.MigrationStart, res.MigrationEnd)
	}
	if res.Policy != "EDM-HDF" {
		t.Fatalf("policy %q", res.Policy)
	}
	if res.RemapPeak == 0 {
		t.Fatal("remap table never grew")
	}
}

func TestMigrationPreservesObjectsAndData(t *testing.T) {
	tr := tinyTrace(t, 2)
	cfg := testConfig(16)
	cfg.Migration = MigrateMidpoint
	cl, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	countObjects := func() int {
		n := 0
		for i := 0; i < cl.OSDs(); i++ {
			n += cl.OSD(i).Store.Len()
		}
		return n
	}
	before := countObjects()
	cl.SetPlanner(migration.NewCDF(migration.DefaultConfig()))
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if after := countObjects(); after != before {
		t.Fatalf("object count changed across migration: %d -> %d", before, after)
	}
	// Every remapped object must live exactly where the table says.
	for _, id := range remapEntries(cl) {
		osd := cl.locate(id)
		if _, ok := storeSlot(cl.OSD(osd).Store, id); !ok {
			t.Fatalf("remapped object %d not on OSD %d", id, osd)
		}
	}
	_ = res
}

func TestEveryObjectExactlyOnce(t *testing.T) {
	tr := tinyTrace(t, 4)
	cfg := testConfig(16)
	cfg.Migration = MigrateMidpoint
	cl, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetPlanner(migration.NewCMT(migration.DefaultConfig()))
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	seen := map[int64]int{}
	for i := 0; i < cl.OSDs(); i++ {
		for _, id := range cl.OSD(i).Store.IDs() {
			seen[int64(id)]++
		}
	}
	want := len(tr.Files) * 4
	if len(seen) != want {
		t.Fatalf("%d distinct objects, want %d", len(seen), want)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("object %d present on %d OSDs", id, n)
		}
	}
}

func TestHDFBalancesEraseCounts(t *testing.T) {
	tr1, tr2 := tinyTrace(t, 5), tinyTrace(t, 5)
	base := runPolicy(t, testConfig(16), tr1, nil)
	cfg := testConfig(16)
	cfg.Migration = MigrateMidpoint
	hdf := runPolicy(t, cfg, tr2, migration.NewHDF(migration.DefaultConfig()))

	rsd := func(xs []uint64) float64 {
		var sum float64
		for _, x := range xs {
			sum += float64(x)
		}
		mean := sum / float64(len(xs))
		var v float64
		for _, x := range xs {
			d := float64(x) - mean
			v += d * d
		}
		if mean == 0 {
			return 0
		}
		return sqrtApprox(v/float64(len(xs))) / mean
	}
	if rsd(hdf.EraseCounts) >= rsd(base.EraseCounts) {
		t.Fatalf("HDF did not reduce wear imbalance: %.3f vs %.3f",
			rsd(hdf.EraseCounts), rsd(base.EraseCounts))
	}
}

func sqrtApprox(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func TestPeriodicMigrationMode(t *testing.T) {
	tr := tinyTrace(t, 6)
	cfg := testConfig(16)
	cfg.Migration = MigratePeriodic
	mcfg := migration.DefaultConfig()
	mcfg.Lambda = 0.05 // trigger easily
	res := runPolicy(t, cfg, tr, migration.NewHDF(mcfg))
	if res.Completed != len(tr.Records) {
		t.Fatalf("completed %d of %d", res.Completed, len(tr.Records))
	}
	// The periodic monitor may or may not fire depending on imbalance;
	// the essential property is the run terminates and stays sound.
	if res.Rejected != 0 {
		t.Fatalf("rejected %d", res.Rejected)
	}
}

func TestWarmupReachesSteadyState(t *testing.T) {
	p, _ := trace.LookupProfile("home02")
	p = p.Scaled(800)
	tr, err := trace.Generate(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(8)
	cfg.WarmupDisabled = false
	cl, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cl.OSDs(); i++ {
		ssd := cl.OSD(i).SSD
		st := ssd.Stats()
		// Counters must be clean after warm-up...
		if st.HostPageWrites != 0 || st.Erases != 0 {
			t.Fatalf("OSD %d stats not reset: %+v", i, st)
		}
		// ...but the device must be churned: free blocks near the GC
		// watermark, not fresh.
		if ssd.FreeBlocks() > ssd.Config().Blocks/2 {
			t.Fatalf("OSD %d looks cold after warm-up: %d of %d blocks free",
				i, ssd.FreeBlocks(), ssd.Config().Blocks)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	tr := tinyTrace(t, 1)
	bad := []Config{
		{OSDs: 0},
		{OSDs: 18, Groups: 4}, // n not divisible by m
	}
	for i, cfg := range bad {
		cfg.WarmupDisabled = true
		if _, err := New(cfg, tr); err == nil {
			t.Fatalf("config %d should be rejected", i)
		}
	}
}

func TestEmptyTraceFails(t *testing.T) {
	tr := &trace.Trace{Name: "empty", Users: 1, Files: []trace.FileInfo{{ID: 0, Size: 100}}}
	cl, err := New(testConfig(8), tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(); err == nil {
		t.Fatal("empty trace should fail Run")
	}
}

func TestResponseSeriesCoversRun(t *testing.T) {
	tr := tinyTrace(t, 8)
	res := runPolicy(t, testConfig(16), tr, nil)
	if len(res.ResponseSeries) == 0 {
		t.Fatal("no response series")
	}
	var count int64
	for _, p := range res.ResponseSeries {
		count += p.Count
	}
	if count != int64(res.Completed) {
		t.Fatalf("series counts %d ops, completed %d", count, res.Completed)
	}
}

func TestHDFLockParksAndResumesRequests(t *testing.T) {
	// Direct lock-semantics test (§V.D): a file operation touching a
	// locked object parks on the wait list; releasing the lock resumes
	// it, and the response time spans the whole wait — the Fig. 7 HDF
	// spike.
	tr := tinyTrace(t, 9)
	cfg := testConfig(16)
	cl, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	file := tr.Files[0].ID
	// Lock the file's first data object for a write at offset 0.
	accs := cl.geom.AppendWriteAccesses(nil, 0, 4096)
	lockedID := cl.objectID(file, accs[0].Obj)
	cl.locked[lockedID] = true

	// Streams replay by index into the trace's record list, so plant the
	// probe record there and point a one-element stream at it.
	cl.tr.Records = append(cl.tr.Records, trace.Record{File: file, Kind: trace.OpWrite, Offset: 0, Size: 4096})
	st := &stream{c: cl, pos: []int32{int32(len(cl.tr.Records) - 1)}}
	cl.totalOps = 1
	cl.issueNext(st, 0)
	if len(cl.waiters[lockedID]) != 1 {
		t.Fatalf("request did not park: %d waiters", len(cl.waiters[lockedID]))
	}
	if cl.completedOps != 0 {
		t.Fatal("parked request completed")
	}

	// A request to an unrelated file proceeds immediately.
	other := tr.Files[len(tr.Files)-1].ID
	if _, blocked := cl.blockedObject(trace.Record{File: other, Kind: trace.OpRead, Offset: 0, Size: 4096}); blocked {
		t.Fatal("unrelated request blocked")
	}

	// Unlock at t=5 minutes: the parked op resumes and completes with a
	// response time that includes the wait.
	unlockAt := 5 * sim.Minute
	cl.eng.At(unlockAt, func(at sim.Time) { cl.unlockObject(lockedID, at) })
	cl.eng.Run()
	if cl.completedOps != 1 {
		t.Fatalf("parked request never completed: %d", cl.completedOps)
	}
	if rt := cl.respAll.Quantile(1); rt < unlockAt.Seconds() {
		t.Fatalf("response time %vs does not include the %vs wait", rt, unlockAt.Seconds())
	}
	if len(cl.waiters) != 0 {
		t.Fatal("wait list not drained")
	}
}

// TestNewRefusesNegativeUsers builds on an explicit trace with a
// negative user id, then with a negative user count: New must refuse
// both, where the first used to build and then panic in the replay
// (buildStreams indexed its user lookup with the id).
func TestNewRefusesNegativeUsers(t *testing.T) {
	for _, tc := range []struct {
		name  string
		users int
		user  int32
	}{
		{"negative user id", 4, -1},
		{"negative user count", -4, 0},
	} {
		tr := &trace.Trace{
			Name:  "neg",
			Users: tc.users,
			Files: []trace.FileInfo{{ID: 0, Size: 65536}},
			Records: []trace.Record{
				{User: 0, File: 0, Kind: trace.OpWrite, Size: 4096},
				{User: tc.user, File: 0, Kind: trace.OpWrite, Size: 4096},
			},
		}
		if _, err := New(testConfig(8), tr); err == nil {
			t.Errorf("%s: New accepted the trace", tc.name)
		}
	}
}
