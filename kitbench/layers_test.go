package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestSampleLayer(t *testing.T) {
	for _, c := range []struct {
		frames []string // leaf first
		want   string
	}{
		// Runtime work is charged to the kit frame that asked for it.
		{[]string{"runtime.gentraceback", "runtime.Stack", "oskit/internal/hw.goid", "oskit/internal/freebsd/glue.(*Glue).Enter"}, "hw"},
		{[]string{"runtime.mallocgc", "oskit/internal/freebsd/net.(*Stack).tcpInput"}, "freebsd_net"},
		{[]string{"internal/sync.(*Mutex).Lock", "sync.(*Mutex).Lock", "oskit/internal/libc.(*C).Write"}, "libc"},
		{[]string{"hash/crc32.ieeeCLMUL", "hash/crc32.ChecksumIEEE", "main.verify", "main.(*stream).receive"}, "bench"},
		{[]string{"oskit/kitbench.spin"}, "bench"},
		{[]string{"oskit/internal/percpu.(*Cache[go.shape.*uint8]).Get", "oskit/internal/libc.(*QuickPool).Alloc"}, "percpu"},
		{[]string{"oskit/internal/linux/dev.(*rxPoller).poll.func1"}, "linux_dev"},
		{[]string{"oskit/internal/netbsd/fs.(*bcache).get"}, "netbsd_fs"},
		{[]string{"oskit/internal/evalrig.(*Node).Do"}, "bench"},
		// No kit frame at all: the scheduler and the collector.
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, "go_runtime"},
		{[]string{"runtime.gcBgMarkWorker"}, "go_runtime"},
		{nil, "go_runtime"},
	} {
		got, err := sampleLayer(c.frames)
		if err != nil || got != c.want {
			t.Errorf("sampleLayer(%v) = %q, %v; want %q", c.frames, got, err, c.want)
		}
	}
	if _, err := sampleLayer([]string{"runtime.memmove", "oskit/internal/nosuch.F"}); err == nil {
		t.Error("an unmapped kit package was bucketed")
	}
}

// TestLayerMapCoversTree checks that every package of the kit has a
// layer, and that the map names no package that is gone.
func TestLayerMapCoversTree(t *testing.T) {
	root := filepath.Join("..", "internal")
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		seen[filepath.ToSlash(rel)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pkg := range seen {
		if _, ok := layerOf[pkg]; !ok {
			t.Errorf("oskit/internal/%s has no layer", pkg)
		}
	}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for pkg, l := range layerOf {
		if !seen[pkg] {
			t.Errorf("layer map names oskit/internal/%s, which does not exist", pkg)
		}
		if !known[l] {
			t.Errorf("oskit/internal/%s maps to unknown layer %q", pkg, l)
		}
	}
}

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, v []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(v)))
	p.b = append(p.b, v...)
	return p
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// syntheticProfile builds a gzipped profile: one function per name
// (ids from 1), one location per function, and one sample per stack
// (function ids leaf first) with the given CPU nanoseconds.
func syntheticProfile(names []string, stacks [][]uint64, ns []uint64) []byte {
	prof := &pb{}
	for i, st := range stacks {
		s := (&pb{}).bytes(1, packed(st...)).bytes(2, packed(1, ns[i]))
		prof.bytes(2, s.b)
	}
	for i := range names {
		line := (&pb{}).varint(1, uint64(i+1))
		loc := (&pb{}).varint(1, uint64(i+1)).bytes(4, line.b)
		prof.bytes(4, loc.b)
		fn := (&pb{}).varint(1, uint64(i+1)).varint(2, uint64(i+1))
		prof.bytes(5, fn.b)
	}
	prof.bytes(6, nil) // string 0 is ""
	for _, n := range names {
		prof.bytes(6, []byte(n))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	_, _ = zw.Write(prof.b)
	_ = zw.Close()
	return gz.Bytes()
}

func TestCPUSharesSyntheticProfile(t *testing.T) {
	names := []string{
		"runtime.Stack",                             // 1
		"oskit/internal/hw.goid",                    // 2
		"oskit/internal/freebsd/net.(*Stack).input", // 3
		"runtime.mallocgc",                          // 4
		"runtime.gcBgMarkWorker",                    // 5
		"main.(*rpc).run",                           // 6
	}
	prof := syntheticProfile(names,
		[][]uint64{{1, 2, 3}, {4, 3}, {3}, {5}, {6}},
		[]uint64{50, 20, 10, 15, 5})
	shares, err := cpuShares(prof)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"hw": 0.5, "freebsd_net": 0.3, "go_runtime": 0.15, "bench": 0.05}
	sum := 0.0
	for _, l := range layers {
		sum += shares[l]
		if math.Abs(shares[l]-want[l]) > 1e-12 {
			t.Errorf("cpu.%s = %v, want %v", l, shares[l], want[l])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}

	bad := syntheticProfile([]string{"oskit/internal/nosuch.F"}, [][]uint64{{1}}, []uint64{1})
	if _, err := cpuShares(bad); err == nil {
		t.Error("a profile with an unmapped kit package was accepted")
	}
}

//go:noinline
func spin(until time.Time) (n int) {
	for time.Now().Before(until) {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

// TestCPUSharesRealProfile reads a profile the runtime wrote: the
// decoder must follow the real encoding, not just the synthetic one.
func TestCPUSharesRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	spin(time.Now().Add(300 * time.Millisecond))
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if shares["bench"] < 0.5 {
		t.Errorf("a busy loop in the benchmark read as %v bench", shares)
	}
}
