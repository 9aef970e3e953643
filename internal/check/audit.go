package check

import (
	"edm/internal/cluster"
)

// Bind ties run-level constants the checker cannot learn from the event
// stream to a built cluster: the flash geometry (for the erase
// relocation check) and the minimum per-operation service time. Call it
// between cluster.New and Run.
func Bind(ck *Checker, cl *cluster.Cluster) {
	ck.SetPagesPerBlock(cl.OSD(0).SSD.Config().PagesPerBlock)
	ck.MinResponse = cluster.MinResponse
}

// Audit produces the combined end-of-run report: the checker's
// event-stream view (Finish), the cluster's own state audit
// (cluster.Audit), and the cross-checks between the two — each erase
// event the checker observed must be one erase on the device's counter,
// which holds because both start counting after warm-up. ck may be nil
// to audit state only. Call Audit once per run.
func Audit(cl *cluster.Cluster, ck *Checker) *Report {
	var rep *Report
	if ck != nil {
		rep = ck.Finish()
	} else {
		rep = &Report{}
	}
	for _, msg := range cl.Audit() {
		rep.add("cluster.state", "%s", msg)
	}
	if ck != nil {
		for i := 0; i < cl.OSDs(); i++ {
			device := cl.OSD(i).SSD.Stats().Erases
			if got := ck.Erases(i); got != device {
				rep.add("flash.erase.count",
					"osd %d: checker observed %d erase events, device counted %d", i, got, device)
			}
		}
	}
	rep.sorted()
	return rep
}
