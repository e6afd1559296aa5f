package fabric

import (
	"repro/internal/atm"
	"repro/internal/sim"
)

// JoinTier wires an edge switch into a core switch over a new trunk,
// the unit of the two-tier metro topology: the up link forwards the
// edge's trunk-port output into the core's in-port, the down link
// forwards the core's out-port back into the edge's trunk in-port.
// Both links (and the core in-port binding) run on owner — the edge
// site's event kernel — so the only cross-partition hop in a sharded
// metro is the core switch's output forwarding, whose latency (core
// fabric delay + trunk cell time + prop) is therefore the cluster
// lookahead bound. The trunk's bandwidth is admitted by the edge
// switch's signalling at the trunk port, like any other link.
func JoinTier(edge *Switch, edgePort int, core *Switch, corePort int, owner *sim.Sim, rate int64, prop sim.Duration) (up, down *Link) {
	up = NewLink(owner, rate, prop, 0, core.BindIn(corePort, owner))
	edge.AttachOutput(edgePort, up)
	down = NewLink(owner, rate, prop, 0, edge.BindIn(edgePort, owner))
	core.AttachOutput(corePort, down)
	return up, down
}

// TierLookahead is the core→edge forwarding latency of a trunk built
// with the given geometry: the minimum timestamp distance of any
// cross-partition send in a metro cluster, and therefore the
// conservative lookahead bound to shard it under.
func TierLookahead(coreFabricDelay sim.Duration, rate int64, prop sim.Duration) sim.Duration {
	ct := sim.Duration(int64(atm.CellSize*8) * int64(sim.Second) / rate)
	return coreFabricDelay + ct + prop
}
