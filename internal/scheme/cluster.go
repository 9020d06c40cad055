package scheme

import (
	"fmt"

	"repro/internal/packet"
)

// Cluster is the cluster-based scheme from the MOBICOM '99 paper: hosts
// organize into clusters by the lowest-ID rule (a host whose ID is
// smaller than all of its neighbors' is a head; everyone else joins the
// cluster of the smallest-ID host in range). A head's rebroadcast covers
// its whole cluster, and only gateways — members that can hear a foreign
// cluster — need to forward between clusters. Ordinary members never
// rebroadcast.
//
// Heads and gateways still apply an inner suppression scheme (the
// original work layers the counter or location scheme on top; Flooding
// makes them always rebroadcast). Clustering is computed from the same
// HELLO-derived one- and two-hop knowledge the neighbor-coverage scheme
// uses, so it needs no extra protocol:
//
//   - own head:     min(self, N_x)
//   - neighbor h's head (estimate): min(h, N_{x,h})
//   - gateway: some neighbor's head differs from ours.
type Cluster struct {
	// Inner is the scheme heads and gateways apply; nil means Flooding.
	Inner Scheme
	// Label overrides the display name.
	Label string
}

// Name implements Scheme.
func (s Cluster) Name() string {
	if s.Label != "" {
		return s.Label
	}
	if s.Inner != nil {
		return fmt.Sprintf("cluster+%s", s.Inner.Name())
	}
	return "cluster"
}

// NeedsHello implements Scheme.
func (Cluster) NeedsHello() bool { return true }

// NeedsPosition implements Scheme.
func (s Cluster) NeedsPosition() bool {
	return s.Inner != nil && s.Inner.NeedsPosition()
}

// headOf computes the cluster head of a host given its neighbor set.
func headOf(self packet.NodeID, neighbors []packet.NodeID) packet.NodeID {
	head := self
	for _, n := range neighbors {
		if n < head {
			head = n
		}
	}
	return head
}

// Role classifies a host in the cluster structure. Exported for tests
// and for experiment instrumentation.
type Role int

// Cluster roles.
const (
	// Member hosts never rebroadcast.
	Member Role = iota
	// Head hosts relay within their cluster.
	Head
	// Gateway hosts relay between clusters.
	Gateway
)

// String names the role.
func (r Role) String() string {
	switch r {
	case Head:
		return "head"
	case Gateway:
		return "gateway"
	default:
		return "member"
	}
}

// ClusterRole computes the host's current role from its local knowledge.
func ClusterRole(host HostView) Role {
	self := host.ID()
	neighbors := host.Neighbors()
	myHead := headOf(self, neighbors)
	if myHead == self {
		return Head
	}
	for _, h := range neighbors {
		theirHead := headOf(h, host.TwoHop(h))
		if theirHead != myHead {
			return Gateway
		}
	}
	return Member
}

// NewJudge implements Scheme.
func (s Cluster) NewJudge(host HostView, first Reception) Judge {
	switch {
	case ClusterRole(host) == Member:
		return Judge{kind: judgeMember}
	case s.Inner == nil:
		return Judge{kind: JudgeFlooding}
	}
	return s.Inner.NewJudge(host, first)
}
