package cluster

import (
	"testing"

	"edm/internal/migration"
	"edm/internal/trace"
)

// TestZeroObjectCluster pins the degenerate edge of the dense tables: a
// cluster built over an empty trace has empty metadata tables, yields
// an objectless snapshot the planners decline, and reports the empty
// trace on Run.
func TestZeroObjectCluster(t *testing.T) {
	tr := &trace.Trace{Name: "empty", Users: 1}
	cl, err := New(testConfig(16), tr)
	if err != nil {
		t.Fatalf("New on empty trace: %v", err)
	}
	if len(cl.oids) != 0 {
		t.Fatalf("dense tables hold %d objects for an empty trace", len(cl.oids))
	}
	snap := cl.Snapshot(0)
	if len(snap.Devices) != 16 {
		t.Fatalf("snapshot has %d devices, want 16", len(snap.Devices))
	}
	for _, d := range snap.Devices {
		if len(d.Objects) != 0 {
			t.Fatalf("osd %d snapshot lists %d objects, want 0", d.OSD, len(d.Objects))
		}
	}
	h := migration.NewHDF(migration.DefaultConfig())
	h.SetForce(true)
	if moves := h.Plan(snap); len(moves) != 0 {
		t.Fatalf("planner produced %d moves for an objectless cluster", len(moves))
	}
	if msgs := cl.Audit(); len(msgs) != 0 {
		t.Fatalf("audit violations on empty cluster: %v", msgs)
	}
	if _, err := cl.Run(); err == nil {
		t.Fatal("Run on an empty trace succeeded; want an error")
	}
}

// TestDenseTablesTrackMigrations runs a migration-heavy replay and
// cross-checks every dense table row against the authoritative stores
// and the remap-aware locate — the owner/slot caches must follow each
// committed move exactly.
func TestDenseTablesTrackMigrations(t *testing.T) {
	tr := tinyTrace(t, 5)
	cfg := testConfig(16)
	cfg.Migration = MigrateMidpoint
	cl, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetPlanner(migration.NewHDF(migration.DefaultConfig()))
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MovedObjects == 0 {
		t.Fatal("workload committed no moves; the test needs migration churn")
	}
	if v := cl.Audit(); len(v) != 0 {
		t.Fatalf("audit violations after migrations: %v", v)
	}
	for oi, id := range cl.oids {
		own := int(cl.owner[oi])
		if got := cl.locate(id); got != own {
			t.Fatalf("object %d: dense owner %d, locate %d", id, own, got)
		}
		if got := cl.indexOf(id); got != int32(oi) {
			t.Fatalf("object %d: indexOf %d, table row %d", id, got, oi)
		}
		slot, ok := storeSlot(cl.osds[own].Store, id)
		if !ok || slot != cl.oslot[oi] {
			t.Fatalf("object %d: store slot %d (ok=%v), table slot %d", id, slot, ok, cl.oslot[oi])
		}
	}
}

// TestSparseFileIDs runs a trace whose file ids are spread far apart —
// as a decoded trace may have them — so the dense tables resolve file
// ranks through rankByID instead of the rank slice. The replay, the HDF
// mover and the end-of-run audit must all work on that path.
func TestSparseFileIDs(t *testing.T) {
	tr := tinyTrace(t, 5)
	sparse := func(f trace.FileID) trace.FileID { return f*2_000_003 + 7 }
	for i := range tr.Files {
		tr.Files[i].ID = sparse(tr.Files[i].ID)
	}
	for i := range tr.Records {
		tr.Records[i].File = sparse(tr.Records[i].File)
	}
	cfg := testConfig(16)
	cfg.Migration = MigrateMidpoint
	cl, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if cl.fileRanks != nil || cl.rankByID == nil {
		t.Fatal("premise: sparse file ids did not select the rankByID path")
	}
	cl.SetPlanner(migration.NewHDF(migration.DefaultConfig()))
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(tr.Records) {
		t.Errorf("completed %d of %d records", res.Completed, len(tr.Records))
	}
	if res.Rejected != 0 {
		t.Errorf("rejected %d operations", res.Rejected)
	}
	if res.MovedObjects == 0 {
		t.Error("HDF moved no objects; the mover's dense path went unexercised")
	}
	if v := cl.Audit(); len(v) != 0 {
		t.Errorf("audit violations with sparse file ids: %v", v)
	}
}
