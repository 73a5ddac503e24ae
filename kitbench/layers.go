package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the buckets CPU time is charged to: the paper's layers,
// the Go runtime underneath, and the benchmark itself.
var layers = []string{
	"hw", "linux_dev", "linux_legacy", "freebsd_glue", "freebsd_net",
	"libc", "lmm", "percpu", "netbsd_fs", "httpd", "com_kern",
	"go_runtime", "bench",
}

// layerOf maps every package under oskit/internal to its layer.  The
// map is explicit: a package missing from it fails the traced run, so
// a new package cannot silently land in the wrong bucket.
var layerOf = map[string]string{
	// The simulated PC and its fault plane.
	"hw":          "hw",
	"faults":      "hw",
	"faults/soak": "hw",
	// The encapsulated Linux driver: glue and donor code.
	"linux/dev":    "linux_dev",
	"linux/legacy": "linux_legacy",
	"linux/net":    "linux_legacy",
	"linux/fs":     "linux_legacy",
	// FreeBSD glue, donor drivers and the stack.
	"freebsd/glue": "freebsd_glue",
	"freebsd/dev":  "freebsd_glue",
	"freebsd/net":  "freebsd_net",
	// The minimal C library, with QuickPool and the magazines' users.
	"libc":   "libc",
	"lmm":    "lmm",
	"percpu": "percpu",
	// File system and the HTTP server.
	"netbsd/fs": "netbsd_fs",
	"httpd":     "httpd",
	// COM, the core services and the kernel support library.
	"com":      "com_kern",
	"core":     "com_kern",
	"kern":     "com_kern",
	"dev":      "com_kern",
	"stats":    "com_kern",
	"smp":      "com_kern",
	"amm":      "com_kern",
	"bmfs":     "com_kern",
	"boot":     "com_kern",
	"diskpart": "com_kern",
	"exec":     "com_kern",
	"fsread":   "com_kern",
	"gdb":      "com_kern",
	"kvm":      "com_kern",
	"memdebug": "com_kern",
	// The rig and the tools: benchmark-side code.
	"evalrig":               "bench",
	"benchjson":             "bench",
	"analysis":              "bench",
	"analysis/analysistest": "bench",
	"analysis/comref":       "bench",
	"analysis/detsource":    "bench",
	"analysis/guarded":      "bench",
	"analysis/guidreg":      "bench",
	"analysis/lockhook":     "bench",
	"analysis/suite":        "bench",
	"analysis/testskip":     "bench",
}

// pkgOf extracts the package path from a symbol name as a profile
// records it, e.g. "oskit/internal/freebsd/net.(*Stack).input".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// frameLayer classifies one frame: its layer, or "" for a frame of the
// Go runtime or standard library, whose time belongs to the kit frame
// that called it.  An unmapped package of the kit is an error.
func frameLayer(fn string) (string, error) {
	pkg := pkgOf(fn)
	switch {
	case pkg == "main" || strings.HasPrefix(pkg, "oskit/kitbench"):
		return "bench", nil
	case strings.HasPrefix(pkg, "oskit/internal/"):
		if l, ok := layerOf[strings.TrimPrefix(pkg, "oskit/internal/")]; ok {
			return l, nil
		}
		return "", fmt.Errorf("package %s has no layer", pkg)
	case strings.HasPrefix(pkg, "oskit"):
		return "", fmt.Errorf("package %s has no layer", pkg)
	}
	return "", nil
}

// sampleLayer charges one sample, given its frames leaf first, to the
// leaf-most frame of the kit or the benchmark: runtime and library
// frames (runtime.Stack under hw's goroutine ids, mallocgc under an
// allocating layer, sync under a locking one) count for the layer that
// called them.  A stack with no such frame — the scheduler, GC
// workers — is the Go runtime's.
func sampleLayer(frames []string) (string, error) {
	for _, fn := range frames {
		l, err := frameLayer(fn)
		if err != nil || l != "" {
			return l, err
		}
	}
	return "go_runtime", nil
}

// cpuShares buckets a CPU profile (pprof format, as runtime/pprof
// writes it) by layer and returns each layer's share of the samples'
// CPU time.  The shares sum to 1.
func cpuShares(prof []byte) (map[string]float64, error) {
	samples, err := parseProfile(prof)
	if err != nil {
		return nil, err
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range samples {
		l, err := sampleLayer(s.frames)
		if err != nil {
			return nil, err
		}
		byLayer[l] += s.value
		total += s.value
	}
	if total == 0 {
		return nil, errors.New("cpu profile has no samples")
	}
	shares := map[string]float64{}
	for _, l := range layers {
		shares[l] = float64(byLayer[l]) / float64(total)
	}
	return shares, nil
}

// profSample is one profile sample: its frames, leaf first, and its
// value (CPU nanoseconds).
type profSample struct {
	frames []string
	value  int64
}

// parseProfile decodes the parts of a gzip-compressed pprof profile
// the bucketing needs: samples, locations, functions and strings.
// The format is profile.proto from github.com/google/pprof; field
// numbers are noted inline.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs    []string
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id → function ids, leaf first
		fnName  = map[uint64]int64{}    // function id → string index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Profile.sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // Sample.location_id
					s.locs = appendPacked(s.locs, v, b)
				case 2: // Sample.value
					for _, x := range appendPacked(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // Location.id
					id = v
				case 4: // Location.line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 { // Line.function_id
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Profile.function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1: // Function.id
					id = v
				case 2: // Function.name
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{value: s.values[len(s.values)-1]}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					ps.frames = append(ps.frames, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// appendPacked appends a repeated integer field, packed (b) or not (v).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's
// number and its value: v for varint and fixed fields, b (non-nil) for
// length-delimited ones.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errors.New("bad varint")
			}
		case 1:
			if n = 8; len(msg) < n {
				return errors.New("short fixed64")
			}
		case 5:
			if n = 4; len(msg) < n {
				return errors.New("short fixed32")
			}
		case 2:
			l, m := binary.Uvarint(msg)
			if m <= 0 || uint64(len(msg)-m) < l {
				return errors.New("bad length")
			}
			b, n = msg[m:m+int(l)], m+int(l)
			if b == nil {
				b = []byte{}
			}
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		msg = msg[n:]
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

//
