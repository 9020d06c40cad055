package manet

import "reflect"

// TrueNeighborCount returns the ground-truth number of hosts currently
// within radio range of host i (tests compare HELLO-derived tables
// against this).
func (n *Network) TrueNeighborCount(i int) int {
	n.nbrScratch = n.ch.Neighbors(n.hosts[i].mac.Radio(), n.nbrScratch[:0])
	return len(n.nbrScratch)
}

// HostTableCount returns host i's HELLO-derived neighbor count.
func (n *Network) HostTableCount(i int) int { return n.hosts[i].hello.table.Count() }

// HoldsUnicast reports whether host i's MAC has allocated its unicast
// record. The record is the MAC's own unexported field, read by
// reflection so no production accessor exists for tests alone.
func (n *Network) HoldsUnicast(i int) bool {
	return !reflect.ValueOf(n.hosts[i].mac).Elem().FieldByName("uc").IsNil()
}
