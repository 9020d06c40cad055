package phy

import "repro/internal/obs"

// Observe registers the channel's telemetry series on a collector and
// enables the busy-time accounting they read. Call before traffic
// starts; a nil collector leaves the channel uninstrumented (the busy
// integral stays gated off, so the hot path cost is one false branch
// per carrier transition).
func (c *Channel) Observe(o *obs.Collector) {
	if o == nil {
		return
	}
	c.obsBusy = true
	c.busyLast = c.sched.Now()
	o.Gauge("phy.busy_radio_seconds", c.BusyRadioSeconds)
	o.Gauge("phy.active_transmissions", func() float64 { return float64(len(c.active)) })
	o.Gauge("phy.transmissions", func() float64 { return float64(c.stats.Transmissions) })
	o.Gauge("phy.deliveries", func() float64 { return float64(c.stats.Deliveries) })
	o.Gauge("phy.collisions", func() float64 { return float64(c.stats.Collisions) })
	o.Gauge("phy.lost", func() float64 { return float64(c.stats.Lost) })
	o.Gauge("phy.tx_pool_hit_rate", c.TxPoolHitRate)
	o.Gauge("phy.nbr_memo_hit_rate", c.NbrMemoHitRate)
}
