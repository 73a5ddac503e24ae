package main

import (
	"fmt"
	"sync/atomic"

	"oskit/internal/evalrig"
	"oskit/internal/hw"
)

// snapshot is every counter of a cluster at one instant, summed over
// its nodes: the COM-discovered stats sets ("set/name") plus the
// simulated hardware's own ledgers ("hw/…").
type snapshot map[string]int64

// diskTap counts the requests the server's disk services; it rides
// the disk's fault-hook seam and never injects a fault.
type diskTap struct{ n atomic.Int64 }

func (d *diskTap) hook(bool, uint32, uint32) hw.DiskFault {
	d.n.Add(1)
	return hw.DiskFault{}
}

func takeSnapshot(c *evalrig.Cluster, disk *diskTap) snapshot {
	s := snapshot{}
	for _, n := range c.Nodes {
		for _, set := range n.Stats() {
			for _, st := range set.Snapshot() {
				s[set.StatsName()+"/"+st.Name] += st.Value
			}
			set.Release()
		}
		rx, tx, drops := n.NIC().Stats()
		raised, _, _ := n.NIC().RxIntrCounters()
		s["hw/nic.rx"] += int64(rx)
		s["hw/nic.tx"] += int64(tx)
		s["hw/nic.drops"] += int64(drops)
		s["hw/nic.rx_intr"] += int64(raised)
	}
	sw := c.Switch.Stats()
	s["hw/switch.frames"] = int64(sw.TxFrames)
	s["hw/switch.drops"] = int64(sw.Drops)
	if disk != nil {
		s["hw/disk.reqs"] = disk.n.Load()
	}
	return s
}

// delta is after minus s, for every counter of after.
func (s snapshot) delta(after snapshot) snapshot {
	d := snapshot{}
	for k, v := range after {
		d[k] = v - s[k]
	}
	return d
}

// pathPin is a check that a workload measured the configured path, not
// a fallback: it reads counter deltas of the measured phase.
type pathPin struct {
	counter string
	zero    bool // the counter must stay 0; otherwise it must rise
}

func (p pathPin) check(d snapshot) error {
	v, ok := d[p.counter]
	switch {
	case !ok:
		return fmt.Errorf("path check: no counter %s", p.counter)
	case p.zero && v != 0:
		return fmt.Errorf("path check: %s = %d, want 0", p.counter, v)
	case !p.zero && v <= 0:
		return fmt.Errorf("path check: %s = %d, want > 0", p.counter, v)
	}
	return nil
}

func (p pathPin) String() string {
	if p.zero {
		return p.counter + " == 0"
	}
	return p.counter + " > 0"
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// counterMetrics derives the per-layer counter metrics from one traced
// phase's deltas; ops is the phase's operations (packets are frames
// offered to the switch).  A metric whose layer the workload does not
// reach reads 0.
func counterMetrics(d snapshot, ops int64) map[string]float64 {
	pkts := d["hw/switch.frames"]
	segsIn, segsOut := d["freebsd_net/tcp.segs_in"], d["freebsd_net/tcp.segs_out"]
	hits, misses := d["netbsd_fs/bcache.hits"], d["netbsd_fs/bcache.misses"]
	return map[string]float64{
		"hw.nic_drops":                      ratio(d["hw/nic.drops"], ops),
		"hw.switch_drops":                   ratio(d["hw/switch.drops"], ops),
		"hw.rx_intr_per_frame":              ratio(d["hw/nic.rx_intr"], d["hw/nic.rx"]),
		"hw.disk_reqs_per_req":              ratio(d["hw/disk.reqs"], ops),
		"linux_dev.frames_per_poll":         ratio(d["linux_dev/rx.batched-frames"], d["linux_dev/rx.polls"]),
		"linux_dev.xmit_sg_per_pkt":         ratio(d["linux_dev/xmit.sg"], pkts),
		"linux_dev.kmalloc_per_pkt":         ratio(d["linux_dev/kmalloc.allocs"], pkts),
		"linux_dev.kmalloc_cpu_hit_ratio":   ratio(d["linux_dev/kmalloc.cpu_hits"], d["linux_dev/kmalloc.allocs"]),
		"freebsd_net.segs_per_op":           ratio(segsIn+segsOut, ops),
		"freebsd_net.acks_coalesced_ratio":  ratio(d["freebsd_net/tcp.rx_acks_coalesced"], segsIn),
		"freebsd_net.rexmt":                 ratio(d["freebsd_net/tcp.rexmt"], ops),
		"freebsd_net.accept_overflows":      ratio(d["freebsd_net/tcp.accept_overflows"], ops),
		"freebsd_net.timewait_recycled":     ratio(d["freebsd_net/tcp.timewait_recycled"], ops),
		"freebsd_net.mbuf_allocs_per_op":    ratio(d["freebsd_net/mbuf.allocs"], ops),
		"freebsd_glue.malloc_per_op":        ratio(d["bsd_malloc/malloc.allocs"], ops),
		"freebsd_glue.malloc_cpu_hit_ratio": ratio(d["bsd_malloc/malloc.cpu_hits"], d["bsd_malloc/malloc.allocs"]),
		"libc.qp_allocs_per_op":             ratio(d["quickpool/qp.allocs"], ops),
		"libc.qp_magazine_hit_ratio":        ratio(d["quickpool/qp.magazine_hits"], d["quickpool/qp.allocs"]),
		"lmm.allocs_per_op":                 ratio(d["kern/lmm.allocs"], ops),
		"netbsd_fs.bcache_hit_ratio":        ratio(hits, hits+misses),
		"netbsd_fs.disk_reads_per_req":      ratio(d["netbsd_fs/bcache.disk_reads"], ops),
		"netbsd_fs.pages_mapped_per_req":    ratio(d["freebsd_net/sendfile.pages_mapped"], ops),
		"netbsd_fs.sendfile_copied_bytes":   float64(d["freebsd_net/sendfile.bytes_copied"]),
	}
}

// counterNames lists every counter counterMetrics and the path pins
// read, for the test that keeps them in step with the kit.
var counterNames = []string{
	"hw/nic.drops", "hw/switch.drops", "hw/nic.rx_intr", "hw/nic.rx", "hw/disk.reqs",
	"hw/switch.frames",
	"linux_dev/rx.batched-frames", "linux_dev/rx.polls", "linux_dev/xmit.sg",
	"linux_dev/xmit.flattened", "linux_dev/kmalloc.allocs", "linux_dev/kmalloc.cpu_hits",
	"freebsd_net/tcp.segs_in", "freebsd_net/tcp.segs_out", "freebsd_net/tcp.rx_acks_coalesced",
	"freebsd_net/tcp.rexmt", "freebsd_net/tcp.accept_overflows", "freebsd_net/tcp.timewait_recycled",
	"freebsd_net/mbuf.allocs", "freebsd_net/sendfile.pages_mapped", "freebsd_net/sendfile.bytes_copied",
	"bsd_malloc/malloc.allocs", "bsd_malloc/malloc.cpu_hits",
	"quickpool/qp.allocs", "quickpool/qp.magazine_hits",
	"kern/lmm.allocs",
	"netbsd_fs/bcache.hits", "netbsd_fs/bcache.misses", "netbsd_fs/bcache.disk_reads",
}
