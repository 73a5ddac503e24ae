package hw

import "sync/atomic"

// Per-CPU identity for allocator front caches (E16).
//
// Two flavours, because exactness and speed pull apart in this simulator:
//
//   - CurCPU is exact for interrupt dispatcher goroutines — it rides the
//     same goroutine-id-keyed dispIDs affinity map that InIntr uses — and
//     falls back to a stable hash of the goroutine id for process-level
//     goroutines.  It costs a goid fetch (a runtime.Stack parse under the
//     runtime's print lock: microseconds, serializing concurrent
//     callers), so it is for registration, drain verification, and
//     tests, never for per-operation paths.  GoIDFetches counts every
//     fetch, so a test can pin a path to none.
//
//   - CPUHint is the per-operation shard key the magazine caches use.  A
//     goroutine id is too expensive to fetch per allocation (measured
//     ~2.4 µs on the reference host, ~170× an uncontended mutex), and Go
//     offers no cheaper goroutine-local storage, so the hint is a batched
//     round-robin: one atomic add, with HintBatch consecutive operations
//     landing on the same CPU slot before advancing.  That spreads load
//     across every slot while keeping short alloc/free bursts CPU-local.
//     The hint only steers locality — every magazine slot is locked, so a
//     "wrong" CPU costs a trip to a different slot, never correctness.

// HintBatch is the number of consecutive CPUHint calls that share a slot
// before the hint advances to the next CPU.
const HintBatch = 64

// hintShift is log2(HintBatch).
const hintShift = 6

var hintClock atomic.Uint64

// CurCPU reports the CPU the calling goroutine is identified with: the
// owning dispatch context for interrupt dispatcher goroutines, otherwise
// a stable hash of the goroutine id across the machine's CPUs.  It is
// exact where it matters (handlers run on their affinity CPU) and stable
// everywhere, but costs a goroutine-id fetch — keep it off hot paths.
func (ic *IntrController) CurCPU() int {
	n := len(ic.cpus)
	if n <= 1 {
		return 0
	}
	id := goid()
	if v, ok := ic.dispIDs.Load(id); ok {
		return v.(*cpuCtx).index
	}
	return int(mixGoID(id) % uint64(n))
}

// CPUHint returns a cheap per-operation CPU slot in [0, NumCPUs).  See
// the package comment above: batched round-robin, locality-only.
func (ic *IntrController) CPUHint() int {
	n := len(ic.cpus)
	if n <= 1 {
		return 0
	}
	return int((hintClock.Add(1) >> hintShift) % uint64(n))
}

// mixGoID is a splitmix64-style finalizer so consecutive goroutine ids
// spread across CPUs instead of clustering on neighbouring slots.
func mixGoID(id uint64) uint64 {
	id ^= id >> 33
	id *= 0xff51afd7ed558ccd
	id ^= id >> 33
	id *= 0xc4ceb9fe1a85ec53
	id ^= id >> 33
	return id
}
