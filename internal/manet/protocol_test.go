package manet

import (
	"io"
	"reflect"
	"testing"

	"repro/internal/packet"
	"repro/internal/scheme"
	"repro/internal/sim"
)

// hopProtocol is a trivial Protocol: one broadcast from host 0 whose
// payload counts hops, relays ending at host stop, and every first
// receiver acknowledging its sender with a unicast.
type hopProtocol struct {
	n     *Network
	stop  packet.NodeID
	hops  map[packet.NodeID]int           // payload at first reception
	acked map[packet.NodeID]bool          // unicast receivers
	dests map[packet.NodeID]packet.NodeID // misaddressed deliveries
}

func (p *hopProtocol) Start() sim.Time {
	at := sim.Time(0).Add(p.n.cfg.Warmup)
	p.n.sched.Schedule(at, func() { p.n.Originate(0, 0) })
	return at
}

func (p *hopProtocol) Heard(host packet.NodeID, f *packet.Frame, first bool) (any, bool) {
	if !first {
		return nil, false
	}
	hop := f.Payload.(int)
	p.hops[host] = hop
	p.n.Unicast(host, f.Sender, 32, "ack", nil)
	return hop + 1, host != p.stop
}

func (p *hopProtocol) ReceiveData(host packet.NodeID, f *packet.Frame) {
	p.acked[host] = true
	if f.Dest != host {
		p.dests[host] = f.Dest
	}
}

// TestProtocolRidesRebroadcastPath drives a five-host chain through the
// Protocol seam: the payload a host returns is what its rebroadcast
// carries, relay false ends the wave there, unicasts reach only their
// destination, and the protocol's workload replaces Requests.
func TestProtocolRidesRebroadcastPath(t *testing.T) {
	n := mustNew(t, Config{
		Hosts: 5, MapUnits: 5, Static: true, Placement: chain(5, 450),
		Scheme: scheme.Flooding{}, RetainRecords: true, Seed: 1,
	})
	p := &hopProtocol{
		n: n, stop: 3,
		hops:  map[packet.NodeID]int{},
		acked: map[packet.NodeID]bool{},
		dests: map[packet.NodeID]packet.NodeID{},
	}
	n.Protocol = p
	s := n.Run()

	if s.Broadcasts != 1 {
		t.Errorf("%d broadcasts ran, want the protocol's one", s.Broadcasts)
	}
	if want := map[packet.NodeID]int{1: 0, 2: 1, 3: 2}; !reflect.DeepEqual(p.hops, want) {
		t.Errorf("first-reception payloads %v, want %v", p.hops, want)
	}
	if got := n.Records()[0].Transmitted; got != 3 {
		t.Errorf("%d transmissions, want hosts 0-2 (3 stops the wave)", got)
	}
	if want := map[packet.NodeID]bool{0: true, 1: true, 2: true}; !reflect.DeepEqual(p.acked, want) {
		t.Errorf("unicasts reached %v, want %v", p.acked, want)
	}
	if len(p.dests) != 0 {
		t.Errorf("unicasts delivered to hosts they were not addressed to: %v", p.dests)
	}
}

// TestUnicastRecordOnlyWhereUnicast checks that only hosts whose MAC
// takes part in a unicast exchange pay for its state: after an AC run,
// all broadcasts and HELLOs, no MAC holds the unicast record; after a
// route-discovery run (hopProtocol's broadcast request answered by
// unicast replies) the hosts that replied and those they replied to
// hold it, and the host that only overheard a reply does not.
func TestUnicastRecordOnlyWhereUnicast(t *testing.T) {
	ac := mustNew(t, Config{Hosts: 100, MapUnits: 5, Scheme: scheme.AdaptiveCounter{}, Requests: 20, Seed: 3})
	ac.Run()
	for i := range ac.hosts {
		if ac.HoldsUnicast(i) {
			t.Errorf("AC run: host %d holds a unicast record", i)
		}
	}

	n := mustNew(t, Config{
		Hosts: 5, MapUnits: 5, Static: true, Placement: chain(5, 450),
		Scheme: scheme.Flooding{}, Seed: 1,
	})
	n.Protocol = &hopProtocol{
		n: n, stop: 3,
		hops:  map[packet.NodeID]int{},
		acked: map[packet.NodeID]bool{},
		dests: map[packet.NodeID]packet.NodeID{},
	}
	n.Run()
	for i, want := range []bool{true, true, true, true, false} {
		if got := n.HoldsUnicast(i); got != want {
			t.Errorf("route discovery: host %d holds a unicast record: %v, want %v", i, got, want)
		}
	}
}

func TestCheckpointRefusesProtocol(t *testing.T) {
	n := mustNew(t, Config{Hosts: 3, MapUnits: 1, Requests: 1, Seed: 1})
	n.Protocol = &hopProtocol{n: n}
	if err := n.Checkpoint(io.Discard); err == nil {
		t.Error("checkpoint with a protocol attached accepted")
	}
}
