package cluster

import (
	"strings"
	"testing"

	"edm/internal/migration"
)

// checkedRun replays the tiny workload under HDF midpoint migration and
// returns the cluster for further poking.
func checkedRun(t *testing.T) *Cluster {
	t.Helper()
	tr := tinyTrace(t, 1)
	cfg := testConfig(16)
	cfg.Migration = MigrateMidpoint
	cl, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetPlanner(migration.NewHDF(migration.Config{Lambda: 0.1}))
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestAuditCleanAfterCheckedRun(t *testing.T) {
	cl := checkedRun(t)
	if v := cl.Audit(); len(v) != 0 {
		t.Fatalf("audit of a healthy run reported violations:\n%s", strings.Join(v, "\n"))
	}
	if cl.movesCommitted == 0 {
		t.Fatal("midpoint shuffle committed no moves — audit exercised nothing")
	}
}

// TestAuditFlagsInjectedCorruption corrupts one piece of cluster state at
// a time and asserts the audit names the broken law — the harness's
// it-can-actually-fail proof at the state level.
func TestAuditFlagsInjectedCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(*Cluster)
		want    string // substring of the expected violation
	}{
		{"held lock", func(c *Cluster) { c.locked[1<<40] = true }, "locks still held"},
		{"parked waiter", func(c *Cluster) { c.waiters[1<<40] = []pendingOp{{}} }, "wait lists not drained"},
		{"round in flight", func(c *Cluster) { c.migrating = true }, "round still in flight"},
		{"move accounting", func(c *Cluster) { c.movesCommitted++ }, "remap table recorded"},
		{"lost completion", func(c *Cluster) { c.completedOps-- }, "operations completed"},
		// Residency is read from the stores' own slots; the owner and
		// slot rows must point at exactly those copies.
		{"row points at another slot", func(c *Cluster) {
			o := c.osds[c.owner[0]]
			for _, sl := range o.Store.SortedIndices() {
				if sl != c.oslot[0] {
					c.oslot[0] = sl
					return
				}
			}
		}, "not resident at its recorded slot"},
		{"second copy", func(c *Cluster) {
			other := (int(c.owner[0]) + 1) % len(c.osds)
			if _, err := c.osds[other].Store.CreateIndexed(c.oids[0], 4096); err != nil {
				panic(err)
			}
		}, "resident on both"},
		{"copy without a row", func(c *Cluster) {
			if _, err := c.osds[0].Store.CreateIndexed(1<<40, 4096); err != nil {
				panic(err)
			}
		}, "no row points at it"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl := checkedRun(t)
			tc.corrupt(cl)
			v := cl.Audit()
			if len(v) == 0 {
				t.Fatal("audit missed the injected corruption")
			}
			found := false
			for _, msg := range v {
				if strings.Contains(msg, tc.want) {
					found = true
				}
			}
			if !found {
				t.Fatalf("no violation mentions %q; got:\n%s", tc.want, strings.Join(v, "\n"))
			}
		})
	}
}

// TestAuditSkipsStripeCheckForCMT runs the cross-group-capable CMT
// policy and asserts the audit still passes: the stripe-dispersion law
// is only enforced while every recorded move stayed intra-group.
func TestAuditSkipsStripeCheckForCMT(t *testing.T) {
	tr := tinyTrace(t, 1)
	cfg := testConfig(16)
	cfg.Migration = MigrateMidpoint
	cl, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetPlanner(migration.NewCMT(migration.Config{Lambda: 0.1}))
	if _, err := cl.Run(); err != nil {
		t.Fatalf("CMT run failed: %v", err)
	}
	if v := cl.Audit(); len(v) != 0 {
		t.Fatalf("audit of a CMT run reported violations:\n%s", strings.Join(v, "\n"))
	}
}
