package manet

// TrueNeighborCount returns the ground-truth number of hosts currently
// within radio range of host i (tests compare HELLO-derived tables
// against this).
func (n *Network) TrueNeighborCount(i int) int {
	n.nbrScratch = n.ch.Neighbors(n.hosts[i].mac.Radio(), n.nbrScratch[:0])
	return len(n.nbrScratch)
}

// HostTableCount returns host i's HELLO-derived neighbor count.
func (n *Network) HostTableCount(i int) int { return n.hosts[i].table.Count() }
