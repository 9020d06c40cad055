package obs_test

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/packet"
)

// A Recorder collects per-broadcast events; Dump renders the timeline.
func ExampleRecorder_Dump() {
	rec := obs.NewRecorder()
	bid := packet.BroadcastID{Source: 1, Seq: 1}
	rec.Record(0, obs.Originate, bid, 1)
	rec.Record(2432, obs.Deliver, bid, 2)
	rec.Record(3052, obs.Transmit, bid, 2)
	rec.Record(5484, obs.Inhibit, bid, 3)
	fmt.Print(rec.Dump(bid))
	// Output:
	// timeline of bcast(host1,#1):
	//   +   0.000ms  originate  host1
	//   +   2.432ms  deliver    host2
	//   +   3.052ms  transmit   host2
	//   +   5.484ms  inhibit    host3
}
