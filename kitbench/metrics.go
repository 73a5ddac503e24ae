package main

// metricDef names one reported metric and its unit; BENCHMARK.json at
// the repository root lists the same names and units.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the kit sees, from untraced runs.
// Every workload reports all of them; an operation is one 4 KB block
// (stream), one round trip (rpc), one connection cycle (churn) or one
// request (fileserve).
var endToEnd = []metricDef{
	{"goodput_mbps", "Mb/s"}, // verified payload delivered to the applications
	{"ops_per_s", "1/s"},     // verified operations completed per second
	{"p50_us", "us"},         // median operation latency
	{"tail_us", "us"},        // tail operation latency (see workload.tailQ)
	{"setup_s", "s"},         // boot, populate and warm-up; median over the rounds
	{"peak_rss_mb", "MiB"},   // peak resident memory of the benchmark process
}

// perLayer are the traced run's metrics.  Counter metrics are deltas
// over the traced phase normalised per operation or per packet; _us
// metrics are medians of spans the benchmark records around its own
// calls into the kit.  A metric of a layer the workload does not reach
// reads 0.
var perLayer = []metricDef{
	{"hw.nic_drops", "1/op"},
	{"hw.switch_drops", "1/op"},
	{"hw.rx_intr_per_frame", "ratio"},
	{"hw.disk_reqs_per_req", "1/op"},
	{"linux_dev.frames_per_poll", "ratio"},
	{"linux_dev.xmit_sg_per_pkt", "ratio"},
	{"linux_dev.kmalloc_per_pkt", "ratio"},
	{"linux_dev.kmalloc_cpu_hit_ratio", "ratio"},
	{"freebsd_net.segs_per_op", "1/op"},
	{"freebsd_net.acks_coalesced_ratio", "ratio"},
	{"freebsd_net.rexmt", "1/op"},
	{"freebsd_net.accept_overflows", "1/op"},
	{"freebsd_net.timewait_recycled", "1/op"},
	{"freebsd_net.mbuf_allocs_per_op", "1/op"},
	{"freebsd_glue.malloc_per_op", "1/op"},
	{"freebsd_glue.malloc_cpu_hit_ratio", "ratio"},
	{"libc.qp_allocs_per_op", "1/op"},
	{"libc.qp_magazine_hit_ratio", "ratio"},
	{"libc.write_us.client", "us"},
	{"libc.write_per_op.client", "1/op"},
	{"libc.write_us.server", "us"},
	{"libc.write_per_op.server", "1/op"},
	{"libc.read_us.client", "us"},
	{"libc.read_per_op.client", "1/op"},
	{"libc.read_us.server", "us"},
	{"libc.read_per_op.server", "1/op"},
	{"libc.connect_us", "us"},
	{"libc.accept_us", "us"},
	{"libc.close_us", "us"},
	{"lmm.allocs_per_op", "1/op"},
	{"netbsd_fs.bcache_hit_ratio", "ratio"},
	{"netbsd_fs.disk_reads_per_req", "1/op"},
	{"netbsd_fs.pages_mapped_per_req", "1/op"},
	{"netbsd_fs.sendfile_copied_bytes", "bytes"},
	{"httpd.entry_us", "us"},
	{"httpd.entries_per_req", "1/op"},
	{"gen.lag_us", "us"},
	{"gen.backlog_max", "count"},
	{"cpu.hw", "share"},
	{"cpu.linux_dev", "share"},
	{"cpu.linux_legacy", "share"},
	{"cpu.freebsd_glue", "share"},
	{"cpu.freebsd_net", "share"},
	{"cpu.libc", "share"},
	{"cpu.lmm", "share"},
	{"cpu.percpu", "share"},
	{"cpu.netbsd_fs", "share"},
	{"cpu.httpd", "share"},
	{"cpu.com_kern", "share"},
	{"cpu.go_runtime", "share"},
	{"cpu.bench", "share"},
	{"trace.overhead", "ratio"},
}
