package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// roundResult is what one round reports to the parent process: its
// share of the end-to-end metrics, the correctness evidence, and, for
// a traced round, the per-layer metrics.
type roundResult struct {
	Setup   float64  `json:"setup_s"`
	Ops     int      `json:"ops"`
	Failed  int      `json:"failed"`
	Corrupt int      `json:"corrupt"`
	Errs    []string `json:"errs,omitempty"`
	Sum     string   `json:"checksum"`
	PinErrs []string `json:"pin_errs,omitempty"`
	Pins    []string `json:"pins,omitempty"`

	OpsPerS float64 `json:"ops_per_s"`
	Goodput float64 `json:"goodput_mbps"`
	P50     float64 `json:"p50_us"`
	Tail    float64 `json:"tail_us"`
	TailAt  string  `json:"tail_at"` // which percentile, of how many samples
	RSS     float64 `json:"peak_rss_mb"`

	// Open-loop generator accounting (fileserve).
	Sent       int     `json:"sent,omitempty"`
	Unsent     int64   `json:"unsent,omitempty"`
	BacklogMax int64   `json:"backlog_max,omitempty"`
	Oversleep  float64 `json:"oversleep_p99_us,omitempty"`

	Layer map[string]float64 `json:"layer,omitempty"`
	Notes []string           `json:"notes,omitempty"`
}

// runRound is one round, run in its own process: boot a cluster, set
// the workload up, measure it for dur (traced: under the tracer and
// the CPU profile, with trace output written under outDir), tear it
// down, and derive the round's metrics.
func runRound(w workload, seed int64, dur time.Duration, traced bool, outDir string) (*roundResult, error) {
	t0 := time.Now()
	e, d, err := boot(w, seed)
	if err != nil {
		return nil, err
	}
	res := &roundResult{Setup: time.Since(t0).Seconds()}

	var tr *tracer
	var tap *diskTap
	var prof bytes.Buffer
	if traced {
		tr = newTracer()
		if e.srv.Disk != nil {
			tap = &diskTap{}
			e.srv.Disk.SetFaultHook(tap.hook)
		}
	}
	before := takeSnapshot(e.c, tap)
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		e.tr.Store(tr)
	}
	p := newPhase()
	d.run(p, until{deadline: p.start.Add(dur)})
	if traced {
		e.tr.Store(nil)
		pprof.StopCPUProfile()
	}
	delta := before.delta(takeSnapshot(e.c, tap))
	if tap != nil {
		e.srv.Disk.SetFaultHook(nil)
	}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	e.c.Halt()

	res.Ops, res.Failed, res.Corrupt, res.Errs = p.ops, p.failed, p.corrupt, p.errs
	res.Sum = e.sum.String()
	for _, pin := range w.pins {
		if err := pin.check(delta); err != nil {
			res.PinErrs = append(res.PinErrs, err.Error())
		}
		res.Pins = append(res.Pins, fmt.Sprintf("%v (%d)", pin, delta[pin.counter]))
	}
	elapsed := p.elapsed().Seconds()
	lat := sortDurations(p.lat)
	q := tailQuantile(len(lat), w.tailQ)
	res.OpsPerS = float64(p.ops) / elapsed
	res.Goodput = float64(p.bytes) * 8 / elapsed / 1e6
	res.P50 = us(quantile(lat, 0.5))
	res.Tail = us(quantile(lat, q))
	res.TailAt = fmt.Sprintf("p%s of %d", strconv.FormatFloat(q*100, 'f', -1, 64), len(lat))
	res.RSS = peakRSSMB()
	if len(p.lag) > 0 {
		res.Sent, res.Unsent, res.BacklogMax = len(p.lag), p.unsent, p.backlogMax
		res.Oversleep = us(quantile(sortDurations(p.oversleep), 0.99))
	}
	if !traced {
		return res, nil
	}

	// The per-layer metrics: counters, spans, the generator, the profile.
	ops := int64(p.ops + p.failed)
	res.Layer = counterMetrics(delta, ops)
	for k, v := range spanMetrics(tr, ops) {
		res.Layer[k] = v
	}
	res.Layer["gen.lag_us"] = us(quantile(sortDurations(p.lag), 0.99))
	res.Layer["gen.backlog_max"] = float64(p.backlogMax)
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	total := 0.0
	for l, s := range shares {
		res.Layer["cpu."+l] = s
		total += s
	}
	if math.Abs(total-1) > 1e-9 {
		return nil, fmt.Errorf("cpu shares sum to %v", total)
	}
	base := filepath.Join(outDir, "trace", fmt.Sprintf("%s-seed%d", w.name, seed))
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(base + ".spans.tsv.gz"); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, fmt.Errorf("write profile: %w", err)
	}
	res.Notes = append(res.Notes, fmt.Sprintf("trace: %d spans in %s.spans.tsv.gz, CPU profile in %s.cpu.pprof",
		len(tr.spans), base, base))
	return res, nil
}

// spanMetrics derives the call timings: the median duration of each
// socket call the benchmark made, and the calls per operation.
func spanMetrics(t *tracer, ops int64) map[string]float64 {
	m := map[string]float64{}
	timing := func(name string, sp uint8, withCount bool) {
		d := t.durations(sp)
		m[name] = us(quantile(d, 0.5))
		if withCount {
			m[strings.Replace(name, "_us", "_per_op", 1)] = ratio(int64(len(d)), ops)
		}
	}
	timing("libc.write_us.client", spWriteCli, true)
	timing("libc.write_us.server", spWriteSrv, true)
	timing("libc.read_us.client", spReadCli, true)
	timing("libc.read_us.server", spReadSrv, true)
	timing("libc.connect_us", spConnect, false)
	timing("libc.accept_us", spAccept, false)
	timing("libc.close_us", spCloseCli, false)
	timing("httpd.entry_us", spHTTPD, false)
	m["httpd.entries_per_req"] = ratio(int64(len(t.durations(spHTTPD))), ops)
	return m
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
