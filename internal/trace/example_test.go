package trace_test

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/trace"
)

// A Recorder collects per-broadcast events; Dump renders the timeline.
func ExampleRecorder_Dump() {
	rec := trace.NewRecorder()
	bid := packet.BroadcastID{Source: 1, Seq: 1}
	rec.Record(0, trace.Originate, bid, 1)
	rec.Record(2432, trace.Deliver, bid, 2)
	rec.Record(3052, trace.Transmit, bid, 2)
	rec.Record(5484, trace.Inhibit, bid, 3)
	fmt.Print(rec.Dump(bid))
	// Output:
	// timeline of bcast(host1,#1):
	//   +   0.000ms  originate  host1
	//   +   2.432ms  deliver    host2
	//   +   3.052ms  transmit   host2
	//   +   5.484ms  inhibit    host3
}
