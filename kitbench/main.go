// Command kitbench is the kit's benchmark: it boots two-node OSKit
// clusters in the fast-path, 2-CPU configuration, drives them through
// the public socket layer from its own load generator, verifies every
// byte it moves, and prints the end-to-end metrics (or, with --trace 1,
// the per-layer ones) as one JSON line.  See README.md.
//
//	bash kitbench/run.sh --workload stream --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"oskit/internal/evalrig"
)

// workload is one traffic mix.
type workload struct {
	name string
	tick time.Duration // machine timer period
	disk bool          // the server carries a disk
	// pins are the path checks: the measured phase must have taken the
	// configured path.
	pins []pathPin
	// tailQ is the highest percentile tail_us may report.
	tailQ float64
	new   func(e *env) driver
}

// workloads are the gated workloads, in BENCHMARK.json's order.
var workloads = []workload{
	{
		name:  "stream",
		tick:  time.Millisecond,
		pins:  []pathPin{{"linux_dev/xmit.flattened", true}, {"linux_dev/xmit.sg", false}},
		tailQ: 0.99,
		new:   func(e *env) driver { return &stream{e: e} },
	},
	{
		name:  "churn",
		tick:  250 * time.Microsecond,
		tailQ: 0.9, // the p99 of connection cycles swings 2.8-4.2 ms
		new:   func(e *env) driver { return &churn{e: e} },
	},
	{
		name:  "fileserve",
		tick:  time.Millisecond,
		disk:  true,
		pins:  []pathPin{{"freebsd_net/sendfile.bytes_copied", true}, {"freebsd_net/sendfile.pages_mapped", false}},
		tailQ: 0.9, // the p99 of ~1700 requests a round swings 4-17 ms
		new:   func(e *env) driver { return &fileserve{e: e} },
	},
}

// ungated are workloads the benchmark runs on request but does not
// gate.  rpc's round trip is bimodal on the reference host (a fast mode
// near 140 us and a slow one near 260 us, in a mix that drifts from run
// to run), so its median jumps between the modes: (Q3 - Q1) / median
// of 0.41 over ten runs, beyond any useful bound.  See README.md.
var ungated = []workload{
	{
		name:  "rpc",
		tick:  time.Millisecond,
		tailQ: 0.99,
		new:   func(e *env) driver { return &rpc{e: e} },
	},
}

// options is the one configuration every workload measures.
func (w workload) options() evalrig.Options {
	o := evalrig.Options{FastPath: true, CPUs: 2}
	if w.disk {
		o.DiskSectors = fsSectors
	}
	return o
}

// rounds is how many clusters a run boots, sets up and measures in
// turn, each for an equal share of the run; every metric is the median
// over the rounds, so one unlucky boot cannot move it.
const rounds = 5

func newEnv(c *evalrig.Cluster, seed int64) *env {
	return &env{c: c, srv: c.Server(), cli: c.Generators()[0], seed: seed}
}

// boot brings up one cluster and starts the workload on it.
func boot(w workload, seed int64) (*env, driver, error) {
	c, err := evalrig.NewCluster(evalrig.OSKit, 2, w.tick, w.options())
	if err != nil {
		return nil, nil, err
	}
	e := newEnv(c, seed)
	d := w.new(e)
	if err := d.start(); err != nil {
		return nil, nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	return e, d, nil
}

// report is what one run measured.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	notes     []string // human-readable lines printed before the result
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// spawnRound runs one round in a child process of this executable and
// returns its result.  The child has its own deadline; the parent
// kills it if it outlives that by much.
func spawnRound(self string, w workload, seed int64, dur time.Duration, traced bool, outDir string) (*roundResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), roundLimit(dur)+2*time.Second)
	defer cancel()
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, self, "--round", "--workload", w.name,
		"--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.FormatFloat(dur.Seconds(), 'f', -1, 64),
		"--trace", tr, "--out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("round: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rr roundResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rr); err != nil {
		return nil, fmt.Errorf("round result: %w", err)
	}
	return &rr, nil
}

// roundLimit bounds one round: its measured time plus set-up and
// teardown, which take about a second.  Five rounds of a 25 s run
// then end within 140 s even when every one runs to its limit.
func roundLimit(dur time.Duration) time.Duration { return dur + 20*time.Second }

// measure runs one workload for dur in rounds, each in its own
// process; with traced, the last round runs under the tracer and the
// CPU profile and the report holds the per-layer metrics.
func measure(w workload, seed int64, dur time.Duration, traced bool, outDir string) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var rds []*roundResult
	for i := 0; i < rounds; i++ {
		rr, err := spawnRound(self, w, seed, dur/rounds, traced && i == rounds-1, outDir)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		rds = append(rds, rr)
	}

	// Correctness: payloads, the seed checksum, the path, the generator.
	r := &report{correct: true, metrics: map[string]float64{}}
	var setups, thr, good, p50, tail, rss []float64
	var tailAt []string
	for i, rr := range rds {
		r.attempted += rr.Ops + rr.Failed
		r.failed += rr.Failed
		setups = append(setups, rr.Setup)
		if rr.Sum != rds[0].Sum || strings.HasPrefix(rr.Sum, "incomplete") {
			r.correct = false
			r.notef("round %d checksum %s, round 0 %s", i, rr.Sum, rds[0].Sum)
		}
		if rr.Corrupt > 0 {
			r.correct = false
			r.notef("round %d: %d payload mismatches", i, rr.Corrupt)
		}
		if len(rr.Errs) > 0 {
			r.notef("round %d: %d failed, first: %s", i, rr.Failed, strings.Join(rr.Errs, "; "))
		}
		for _, e := range rr.PinErrs {
			r.correct = false
			r.notef("round %d: %s", i, e)
		}
		if rr.Sent > 0 {
			// The generator falls behind when it wakes late for a due
			// time with a connection free; past the limit the run is
			// invalid, not slow.
			r.notef("round %d open loop at %d/s: %d sent, %d due but unsent at the deadline, backlog max %d, generator oversleep p99 %.0f us (limit %.0f)",
				i, fsRate, rr.Sent, rr.Unsent, rr.BacklogMax, rr.Oversleep, us(oversleepLimit))
			if rr.Oversleep > us(oversleepLimit) {
				r.correct = false
			}
		}
		r.notes = append(r.notes, rr.Notes...)
		if traced && i == rounds-1 {
			continue // the traced round reports per-layer metrics only
		}
		thr = append(thr, rr.OpsPerS)
		good = append(good, rr.Goodput)
		p50 = append(p50, rr.P50)
		tail = append(tail, rr.Tail)
		rss = append(rss, rr.RSS)
		tailAt = append(tailAt, rr.TailAt)
	}
	r.notef("checksum (seed %d, ops 0..%d): %s", seed, sumOps-1, rds[0].Sum)
	if len(rds[0].Pins) > 0 {
		r.notef("path checks (round 0): %s", strings.Join(rds[0].Pins, ", "))
	}
	r.notef("setup_s per round: %v", setups)
	r.notef("ops_per_s per round: %v", thr)
	r.notef("p50_us per round: %v", p50)
	r.notef("tail_us per round: %v (%s)", tail, strings.Join(tailAt, ", "))
	if !traced {
		r.metrics["setup_s"] = median(setups)
		r.metrics["ops_per_s"] = median(thr)
		r.metrics["goodput_mbps"] = median(good)
		r.metrics["p50_us"] = median(p50)
		r.metrics["tail_us"] = median(tail)
		r.metrics["peak_rss_mb"] = median(rss)
		return r, nil
	}
	tp := rds[rounds-1]
	for k, v := range tp.Layer {
		r.metrics[k] = v
	}
	// Tracing overhead: the traced round's median latency against the
	// untraced rounds'.
	r.metrics["trace.overhead"] = tp.P50/median(p50) - 1
	return r, nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "kitbench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	name := flag.String("workload", "", "workload: stream, rpc, churn or fileserve")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for trace output")
	pre := flag.String("preflight", "", "run one preflight configuration in this process and exit")
	roundMode := flag.Bool("round", false, "run one round in this process and print its result")
	flag.Parse()
	if *pre != "" {
		os.Exit(preflightChild(*pre))
	}
	var w *workload
	for _, c := range append(workloads, ungated...) {
		if c.name == *name {
			w = &c
		}
	}
	if w == nil {
		fatalf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	dur := time.Duration(*seconds * float64(time.Second))
	if *roundMode {
		time.AfterFunc(roundLimit(dur), func() {
			fmt.Fprintf(os.Stderr, "kitbench: %s round did not finish within %v\n", w.name, roundLimit(dur))
			os.Exit(3)
		})
		rr, err := runRound(*w, *seed, dur, *trace == 1, *out)
		if err != nil {
			fatalf("%s round: %v", w.name, err)
		}
		line, err := json.Marshal(rr)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(line))
		return
	}

	host, _ := os.Hostname()
	fmt.Printf("kitbench %s seed=%d seconds=%v trace=%d host=%s nproc=%d GOMAXPROCS=%d %s\n",
		w.name, *seed, *seconds, *trace, host, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for _, l := range runPreflights() {
		fmt.Println(l)
	}

	r, err := measure(*w, *seed, dur, *trace == 1, *out)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	res := resultOut{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	for _, m := range defs {
		v, ok := r.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fatalf("metric %s not measured", m.name)
		}
		res.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
		fmt.Printf("  %-36s %14.4f %s\n", m.name, v, m.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}
