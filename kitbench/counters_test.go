package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"oskit/internal/evalrig"
)

// TestCounterNamesExist boots the fileserve configuration and checks
// that every counter the metrics and path checks read is one the kit
// exports: a renamed counter must fail here, not read as 0.
func TestCounterNamesExist(t *testing.T) {
	w := workloads[len(workloads)-1]
	c, err := evalrig.NewCluster(evalrig.OSKit, 2, time.Millisecond, w.options())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Halt()
	if err := c.Server().MountFS(); err != nil {
		t.Fatal(err)
	}
	s := takeSnapshot(c, &diskTap{})
	for _, name := range counterNames {
		if _, ok := s[name]; !ok {
			t.Errorf("no counter %s", name)
		}
	}
	for _, w := range workloads {
		for _, p := range w.pins {
			if _, ok := s[p.counter]; !ok {
				t.Errorf("%s path check reads missing counter %s", w.name, p.counter)
			}
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables and the
// repository's BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: %d metrics in the code, %d in BENCHMARK.json", kind, len(defs), len(got))
		}
		for i := range min(len(defs), len(got)) {
			if defs[i].name != got[i].Name || defs[i].unit != got[i].Unit {
				t.Errorf("%s %d: code %s (%s), BENCHMARK.json %s (%s)", kind, i, defs[i].name, defs[i].unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: code %s, BENCHMARK.json %s", i, w.name, spec.Workloads[i].Name)
		}
	}
}

func TestDiagnose(t *testing.T) {
	crash := `fatal error: sync: unlock of unlocked mutex

goroutine 7 [running]:
sync.fatal({0x5f1a2b, 0x1e})
	/usr/local/go/src/runtime/panic.go:1031 +0x18
oskit/internal/hw.(*IntrController).dispatch(0xc000120000, 0x3)
	/src/internal/hw/intr.go:212 +0x1c4
`
	if got, want := diagnose(crash, false), "fatal error: sync: unlock of unlocked mutex at oskit/internal/hw.(*IntrController).dispatch"; got != want {
		t.Errorf("crash: %q, want %q", got, want)
	}
	hang := `SIGQUIT: quit

goroutine 1 [chan receive]:
oskit/internal/evalrig.(*Node).Do(0xc0000a0000)
	/src/internal/evalrig/evalrig.go:120 +0x20

goroutine 9 [sync.Mutex.Lock]:
sync.runtime_SemacquireMutex(0xc000012345, 0x0, 0x1)
	/usr/local/go/src/runtime/sema.go:95 +0x25
oskit/internal/freebsd/net.(*Stack).tcpInput(0xc000200000, 0x1)
	/src/internal/freebsd/net/tcp_input.go:88 +0x99
`
	if got, want := diagnose(hang, true), "blocked [sync.Mutex.Lock] in oskit/internal/freebsd/net.(*Stack).tcpInput"; got != want {
		t.Errorf("hang: %q, want %q", got, want)
	}
}
