package vodsite_test

import (
	"testing"

	"repro/internal/fileserver"
	"repro/internal/sim"
	"repro/internal/vodsite"
)

// holds reports whether n is in the title's replica set.
func holds(t *vodsite.Title, n *vodsite.Node) bool {
	for _, r := range t.Replicas() {
		if r == n {
			return true
		}
	}
	return false
}

// TestCopyAbortOnSourceFailure: a node failure mid-copy aborts the
// background replication reading from it. The partial file is deleted
// from the target, the target never joins the replica set, and a later
// trigger off a surviving replica completes cleanly.
func TestCopyAbortOnSourceFailure(t *testing.T) {
	h := build(t, 3, 12, 1, vodsite.Config{BaseReplicas: 2, RefusalThreshold: 3},
		fileserver.CMConfig{Utilization: 0.7})
	ctrl := h.ctrl
	title := ctrl.Titles()[0]
	if len(title.Replicas()) != 2 {
		t.Fatalf("replicas %d, want 2", len(title.Replicas()))
	}

	// 3 streams per array at 0.70: six admits fill both replicas, and
	// three refusals trigger the copy.
	v := 0
	admit := func(n int) (refused int) {
		for i := 0; i < n; i++ {
			if _, err := ctrl.Admit(title.Name, h.viewers[v].Port); err != nil {
				refused++
			}
			v++
		}
		return refused
	}
	if r := admit(9); r != 3 {
		t.Fatalf("refusals %d, want 3", r)
	}
	if ctrl.Copying() != 1 || ctrl.Stats.ReplicasTriggered != 1 {
		t.Fatalf("copy not triggered: copying=%d %+v", ctrl.Copying(), ctrl.Stats)
	}
	var src, dst *vodsite.Node
	for _, n := range ctrl.Nodes() {
		switch {
		case holds(title, n) && n.SS.CM.BestEffortQueued() > 0:
			src = n
		case !holds(title, n):
			dst = n
		}
	}
	if src == nil || dst == nil || !dst.SS.Server.Exists(title.Name) {
		t.Fatalf("copy geometry: src=%v dst=%v", src, dst)
	}

	ctrl.FailNode(src)
	if ctrl.Stats.ReplicasAborted != 1 || ctrl.Copying() != 0 {
		t.Fatalf("copy not aborted: copying=%d %+v", ctrl.Copying(), ctrl.Stats)
	}
	if dst.SS.Server.Exists(title.Name) {
		t.Fatal("partial copy left on the target")
	}
	h.site.Sim.RunFor(3 * sim.Second)
	if holds(title, dst) || ctrl.Stats.ReplicasCompleted != 0 {
		t.Fatalf("aborted copy activated: replicas=%v %+v", title.Replicas(), ctrl.Stats)
	}

	// Fresh refusals re-trigger off the surviving replica.
	admit(3)
	if ctrl.Copying() != 1 || ctrl.Stats.ReplicasTriggered != 2 {
		t.Fatalf("copy not re-triggered: copying=%d %+v", ctrl.Copying(), ctrl.Stats)
	}
	h.site.Sim.RunFor(3 * sim.Second)
	if ctrl.Stats.ReplicasCompleted != 1 || ctrl.Stats.ReplicasAborted != 1 || !holds(title, dst) {
		t.Fatalf("retry did not complete: replicas=%v %+v", title.Replicas(), ctrl.Stats)
	}
}
