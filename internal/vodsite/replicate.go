package vodsite

// Reactive replication: when a title's refusals cross the threshold,
// copy it onto the least-loaded node that doesn't hold it. The copy is
// background traffic in the strictest sense — every read goes through
// the source's ReadBestEffort queue, so it is served purely from round
// slack and an admitted stream's guaranteed rounds are untouched. The
// replica joins the catalog only once the copy is durable on the
// target's array.

import "slices"

// maybeReplicate schedules a background copy if the title's refusal
// count has crossed the threshold and a source/target pair exists.
func (c *Controller) maybeReplicate(t *Title) {
	if c.cfg.ReplicationDisabled || t.copying {
		return
	}
	if t.pendingRefusals < c.cfg.RefusalThreshold {
		return
	}
	limit := len(c.nodes)
	if c.cfg.MaxReplicas > 0 && c.cfg.MaxReplicas < limit {
		limit = c.cfg.MaxReplicas
	}
	alive := 0
	for _, n := range t.replicas {
		if !n.failed {
			alive++
		}
	}
	if alive >= limit {
		return
	}
	target := c.replicationTarget(t)
	source := c.copySource(t)
	if target == nil || source == nil || source.SS.CM == nil {
		return
	}
	t.pendingRefusals = 0
	t.copying = true
	c.Stats.ReplicasTriggered++
	var degraded []*Stream
	var cp *Copy
	cp = NewCopy(source, target, t.Name, t.Bytes, func(ok bool) {
		c.copies = slices.DeleteFunc(c.copies, func(x *Copy) bool { return x == cp })
		t.copying = false
		if ok {
			t.replicas = append(t.replicas, target)
			c.Stats.ReplicasCompleted++
		} else {
			c.Stats.ReplicasAborted++
		}
		c.restoreViewers(degraded)
		if cb := c.OnReplica; ok && cb != nil {
			cb(t, target)
		}
	})
	c.copies = append(c.copies, cp)
	if c.cfg.DegradeBeforeReplicate {
		degraded = c.degradeViewers(t, source)
	}
	cp.Start()
}

// degradeViewers drops the hot title's current viewers on the copy's
// source node one quality tier for the replication window: their
// shrunken rounds leave more slack for the best-effort copy reads and
// more disk budget for new viewers while the copy catches up. It
// returns the streams it dropped; restoreViewers lifts them when the
// replica joins the catalog or the copy aborts.
func (c *Controller) degradeViewers(t *Title, src *Node) []*Stream {
	var degraded []*Stream
	for _, st := range src.streams {
		if st.Title != t || st.sess == nil {
			continue
		}
		if st.sess.Degraded() {
			continue // already below full quality; leave its tier alone
		}
		if st.sess.Degrade(c.cfg.DegradeFactor) == nil && st.sess.Degraded() {
			degraded = append(degraded, st)
			c.Stats.DegradedForCopy++
		}
	}
	return degraded
}

// restoreViewers climbs the degraded viewers back toward full quality
// once the replication window closes. A restore the budget refuses
// right now (new viewers took the freed room during the window) parks
// on the controller's restore queue and is retried every time a stream
// releases — the site's own reclaim only covers Adaptive-class
// sessions, and Guaranteed viewers must not stay degraded for life.
func (c *Controller) restoreViewers(degraded []*Stream) {
	for _, st := range degraded {
		if c.restoreFailed(st) {
			c.restorePending = append(c.restorePending, st)
		}
	}
}

// retryRestores re-attempts parked copy-window restores; called after
// any stream teardown returns budget.
func (c *Controller) retryRestores() {
	if len(c.restorePending) == 0 {
		return
	}
	keep := c.restorePending[:0]
	for _, st := range c.restorePending {
		if c.restoreFailed(st) {
			keep = append(keep, st)
		}
	}
	c.restorePending = keep
}

// restoreFailed restores one copy-window viewer to full quality and
// reports whether the budget refused, so the viewer stays parked.
func (c *Controller) restoreFailed(st *Stream) bool {
	switch {
	case st.Released() || st.sess == nil || !st.sess.Degraded() ||
		st.node == nil || st.node.Failed():
		// Gone, already back at full quality (e.g. failover re-admitted
		// it fresh), or dying with its node — FailNode closes and
		// re-admits those moments after aborting the copy, so there is
		// nothing here to restore or count.
		return false
	case st.sess.Restore() == nil:
		c.Stats.RestoredAfterCopy++
		return false
	}
	return true
}

// replicationTarget picks the copy destination: the alive non-holder
// with the lowest *runtime* commitment (disk/uplink bottleneck) — not
// the static placement weight, which says nothing about the load the
// site has actually admitted since Place. Placement weight, then node
// ID, break ties deterministically.
func (c *Controller) replicationTarget(t *Title) *Node {
	var best *Node
	var bestScore float64
	for _, n := range c.nodes {
		if n.failed || t.holds(n) {
			continue
		}
		s := c.nodeScore(n)
		if best == nil || s < bestScore ||
			(s == bestScore && n.weight < best.weight) {
			best, bestScore = n, s
		}
	}
	return best
}

// copySource picks the least-committed alive replica to read from —
// the node with the most round slack for the best-effort copy reads.
func (c *Controller) copySource(t *Title) *Node {
	var best *Node
	for _, n := range t.replicas {
		if n.failed {
			continue
		}
		if best == nil || c.nodeScore(n) < c.nodeScore(best) {
			best = n
		}
	}
	return best
}

// Copying reports background copies in flight.
func (c *Controller) Copying() int { return len(c.copies) }

// copyChunk is the bytes per best-effort read of a background copy.
const copyChunk = 256 << 10

// Copy is one background title copy between two storage nodes, the
// one copy engine both reactive replication and the metro layer's
// cross-site copy ride: the target file is created sparse, the bytes
// move in copyChunk reads through the source's ReadBestEffort queue
// (round slack only, so admitted streams never notice), each write is
// handed to the barrier, and the target is synced before the copy
// reports success. The caller keeps the policy: what triggers a copy,
// which nodes, and what activation means.
type Copy struct {
	src, dst *Node
	name     string
	bytes    int64
	off      int64
	created  bool
	ended    bool
	done     func(ok bool)
}

// NewCopy prepares a copy of bytes bytes of title name from src to
// dst; Start sets it going. done runs exactly once, at the barrier (or
// inline on serial sites): ok when the bytes are durable on dst, !ok
// when the copy failed or was aborted — in which case the partial file
// is deleted from dst right after done returns, unless dst has failed.
func NewCopy(src, dst *Node, name string, bytes int64, done func(ok bool)) *Copy {
	return &Copy{src: src, dst: dst, name: name, bytes: bytes, done: done}
}

// Start creates the sparse target file and issues the first read.
func (cp *Copy) Start() {
	if err := cp.dst.SS.Server.Create(cp.name, true); err != nil {
		cp.Abort()
		return
	}
	cp.created = true
	cp.step()
}

func (cp *Copy) step() {
	if cp.off >= cp.bytes {
		cp.finish()
		return
	}
	off := cp.off
	n := min(copyChunk, cp.bytes-off)
	cp.src.SS.CM.ReadBestEffort(cp.name, off, int(n), func(data []byte, err error) {
		// The read completes on the source node's partition, but the
		// body writes the target node's array and the caller's
		// bookkeeping — possibly on another site's partition: hand it
		// to the barrier, where every partition's state may be touched.
		// Serial sites run it inline.
		cp.src.SS.Net.Sim.Defer(func() {
			if cp.ended {
				return
			}
			if err == nil {
				err = cp.dst.SS.Server.Write(cp.name, off, data)
			}
			if err != nil {
				cp.Abort()
				return
			}
			cp.off = off + int64(len(data))
			cp.step()
		})
	})
}

// finish makes the copy durable before reporting success: only a
// synced replica may be activated (a node that crashes between copy
// and sync must not be serving the title from volatile buffers).
func (cp *Copy) finish() {
	cp.dst.SS.Server.FS().Sync(func(err error) {
		// Fires on the target node's partition; activation mutates
		// catalogs and re-admits viewers, so it runs at the barrier.
		cp.dst.SS.Net.Sim.Defer(func() {
			if cp.ended {
				return
			}
			if err != nil {
				cp.Abort()
				return
			}
			cp.ended = true
			cp.done(true)
		})
	})
}

// Abort stops the copy: done(false) runs, then the partial file is
// removed from a live target so a later attempt can start clean. A
// no-op once the copy has ended.
func (cp *Copy) Abort() {
	if cp.ended {
		return
	}
	cp.ended = true
	cp.done(false)
	if cp.created && !cp.dst.failed {
		_ = cp.dst.SS.Server.Delete(cp.name)
	}
}
