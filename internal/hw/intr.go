package hw

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// runtimeStack is indirected for testability.
var runtimeStack = func(buf []byte) int { return runtime.Stack(buf, false) }

// NumIRQs is the number of interrupt vectors.  Lines 0–15 model the PC
// PIC pair the donor drivers were written against; lines 16–31 are
// message-signaled-style vectors AllocLine hands out to multi-queue
// devices (one per NIC receive ring on SMP machines).
const NumIRQs = 32

// IntrHandler is an interrupt-level handler.  Per the execution model of
// §4.7.4, a handler runs to completion, never blocks, and must not call
// Disable (interrupts are already disabled while it runs).
type IntrHandler func(line int)

// cpuCtx is one logical CPU's dispatch context: its own interrupt-enable
// flag (cliMu), its own pending set, and its own dispatcher goroutine.
// On a 1-CPU machine there is exactly one of these and the model is the
// original two-level §4.7.4 machine, unchanged.
type cpuCtx struct {
	index int

	// cliMu is held whenever this CPU's interrupts are disabled: either
	// by a process-level Disable section (CPU 0 only — the boot CPU owns
	// the legacy process-level cli) or for the duration of one handler.
	// Sections nest per thread of control (BSD spl semantics), so the
	// context tracks the owning goroutine.
	cliMu    sync.Mutex
	cliOwner atomic.Uint64
	cliNest  int

	// inIntr is true while a handler runs on this CPU.
	inIntr atomic.Bool

	mu      sync.Mutex
	cond    *sync.Cond
	pending uint64
	stopped bool
	done    chan struct{}
}

// IntrController is the machine's interrupt controller plus the CPUs'
// interrupt-enable flags.
//
// Model (paper §4.7.4, extended): there are two levels of execution.
// Process-level activities run on ordinary goroutines and may block at
// well-defined points.  Interrupt-level activities run one at a time
// *per CPU* on that CPU's dispatcher; each interrupt line has a CPU
// affinity (default CPU 0), and Raise signals the owning CPU's
// dispatcher — the simulator's IPI.  Handlers on distinct CPUs run
// concurrently; all the legacy single-CPU invariants hold per CPU.
//
// Process level excludes CPU 0's interrupt level with Disable/Enable
// (cli/sti); these nest, like the save_flags/cli/restore_flags idiom in
// donor code.  Components that keep the giant-lock discipline therefore
// keep all their lines on CPU 0 (the default affinity); only components
// with their own fine-grained locking (the SMP network stack) spread
// lines across CPUs.
type IntrController struct {
	cpus []*cpuCtx

	// Shared line state.  masked is atomic so dispatchers can evaluate
	// their wait predicate without the line lock; RMW updates go through
	// lmu.
	lmu       sync.Mutex
	masked    atomic.Uint64
	handlers  [NumIRQs]IntrHandler
	affinity  [NumIRQs]int32 // line -> CPU index; written via lmu
	allocated uint64         // AllocLine bitmap (lines 16..31)

	counts [NumIRQs]atomic.Uint64

	// dispIDs maps dispatcher goroutine ids to their cpuCtx, giving
	// goroutine-accurate InIntr on multi-CPU machines.
	dispIDs sync.Map // uint64 -> *cpuCtx

	stopOnce sync.Once
}

// NewIntrController starts a 1-CPU controller with every line masked and
// no handlers installed.
func NewIntrController() *IntrController { return NewIntrControllerCPUs(1) }

// NewIntrControllerCPUs starts a controller with ncpu logical CPUs (one
// dispatcher each).  All lines start masked, handler-free, and
// affinitized to CPU 0.
func NewIntrControllerCPUs(ncpu int) *IntrController {
	if ncpu < 1 {
		ncpu = 1
	}
	ic := &IntrController{}
	ic.masked.Store(1<<NumIRQs - 1)
	started := make(chan struct{}, ncpu)
	for i := 0; i < ncpu; i++ {
		c := &cpuCtx{index: i, done: make(chan struct{})}
		c.cond = sync.NewCond(&c.mu)
		ic.cpus = append(ic.cpus, c)
		go ic.dispatch(c, started)
	}
	// Wait for every dispatcher to publish its goroutine id, so InIntr is
	// accurate from the first delivered interrupt on.
	for i := 0; i < ncpu; i++ {
		<-started
	}
	return ic
}

// NumCPUs reports the number of logical CPUs (dispatch contexts).
func (ic *IntrController) NumCPUs() int { return len(ic.cpus) }

// SetAffinity routes a line's interrupts to one CPU's dispatcher.
// Configure affinity at boot, before the line's device raises traffic; a
// pending interrupt raised under the old affinity is still dispatched
// there.  Out-of-range CPUs clamp to CPU 0.
func (ic *IntrController) SetAffinity(line, cpu int) {
	if line < 0 || line >= NumIRQs {
		return
	}
	if cpu < 0 || cpu >= len(ic.cpus) {
		cpu = 0
	}
	ic.lmu.Lock()
	ic.affinity[line] = int32(cpu)
	ic.lmu.Unlock()
}

// Affinity reports the CPU a line is routed to.
func (ic *IntrController) Affinity(line int) int {
	ic.lmu.Lock()
	defer ic.lmu.Unlock()
	return int(ic.affinity[line])
}

// AllocLine hands out an unused message-signaled-style vector (line ≥ 16)
// for a device queue, or -1 when all are taken.
func (ic *IntrController) AllocLine() int {
	ic.lmu.Lock()
	defer ic.lmu.Unlock()
	for line := 16; line < NumIRQs; line++ {
		if ic.allocated&(1<<line) == 0 && ic.handlers[line] == nil {
			ic.allocated |= 1 << line
			return line
		}
	}
	return -1
}

// Raise asserts an interrupt line.  It may be called from any context —
// device goroutines, interrupt handlers, process level.  Raising a line
// that is already pending is idempotent (edge-triggered coalescing, as on
// the PC's PIC): drivers must drain their device in the handler.  The
// signal lands on the line's affinity CPU — a cross-CPU Raise is the
// simulator's IPI.
func (ic *IntrController) Raise(line int) {
	if line < 0 || line >= NumIRQs {
		return
	}
	ic.lmu.Lock()
	cpu := int(ic.affinity[line])
	ic.lmu.Unlock()
	c := ic.cpus[cpu]
	c.mu.Lock()
	c.pending |= 1 << line
	c.mu.Unlock()
	c.cond.Signal()
}

// SetHandler installs (or, with nil, removes) the handler for a line.
func (ic *IntrController) SetHandler(line int, h IntrHandler) {
	if line < 0 || line >= NumIRQs {
		return
	}
	ic.lmu.Lock()
	ic.handlers[line] = h
	ic.lmu.Unlock()
}

// SetMask masks (true) or unmasks (false) one line.  Pending interrupts on
// a masked line are held, not dropped.
func (ic *IntrController) SetMask(line int, masked bool) {
	if line < 0 || line >= NumIRQs {
		return
	}
	ic.lmu.Lock()
	m := ic.masked.Load()
	if masked {
		m |= 1 << line
	} else {
		m &^= 1 << line
	}
	ic.masked.Store(m)
	ic.lmu.Unlock()
	for _, c := range ic.cpus {
		c.cond.Signal()
	}
}

// Disable enters a critical section excluding CPU 0's interrupt handlers
// (cli).  Sections nest within one thread of control; distinct threads
// exclude each other, matching per-CPU EFLAGS.IF plus the one-at-a-time
// process-level model of §4.7.4.  On a multi-CPU machine this is the
// legacy discipline: it excludes only the boot CPU, where every line
// without an explicit affinity is dispatched.
func (ic *IntrController) Disable() {
	c := ic.cpus[0]
	id := goid()
	if c.cliOwner.Load() == id {
		c.cliNest++ // nested: only the owner touches cliNest
		return
	}
	c.cliMu.Lock()
	c.cliOwner.Store(id)
	c.cliNest = 1
}

// DropAll releases the calling thread's *entire* Disable nesting,
// returning the depth and the calling thread's identity for RestoreAll.
// Donor sleep paths need this: BSD's tsleep and Linux's sleep_on drop to
// spl0/sti completely before blocking, no matter how deeply the caller's
// components have nested their exclusion — otherwise a file system
// sleeping inside a disk driver would hold interrupts off and deadlock
// against the completion handler.
func (ic *IntrController) DropAll() (depth int, owner uint64) {
	c := ic.cpus[0]
	if c.cliOwner.Load() == 0 {
		panic("hw: DropAll without Disable")
	}
	owner = c.cliOwner.Load() // the caller, by DropAll's contract
	n := c.cliNest
	c.cliNest = 0
	c.cliOwner.Store(0)
	c.cliMu.Unlock()
	return n, owner
}

// DropAllHeld is DropAll for callers that may not hold the exclusion: it
// releases the calling thread's entire Disable nesting and returns the
// depth and the calling thread's identity, or a depth of 0 when this
// thread holds no section.  SMP glue sleep paths need the conditional
// form — their own cli seam is a no-op, but an *outer* component (a file
// system's splbio bracketing a disk driver call) may still have the boot
// CPU's exclusion open, and sleeping while holding it would deadlock
// against the completion handler.  The ownership check has to fetch the
// caller's goroutine id anyway; handing it to RestoreAll saves the
// second fetch.
func (ic *IntrController) DropAllHeld() (depth int, owner uint64) {
	c := ic.cpus[0]
	owner = goid()
	if c.cliOwner.Load() != owner {
		return 0, owner
	}
	n := c.cliNest
	c.cliNest = 0
	c.cliOwner.Store(0)
	c.cliMu.Unlock()
	return n, owner
}

// RestoreAll re-acquires the exclusion at the depth, and for the owner,
// that DropAll or DropAllHeld returned.
func (ic *IntrController) RestoreAll(n int, owner uint64) {
	if n <= 0 {
		panic("hw: RestoreAll of a non-positive depth")
	}
	c := ic.cpus[0]
	c.cliMu.Lock()
	c.cliOwner.Store(owner)
	c.cliNest = n
}

// Enable leaves the innermost Disable section (sti).  The owner check
// is depth-only (goid would cost microseconds per call on the hottest
// path in the kit); unbalanced Enable still panics via the zero owner.
func (ic *IntrController) Enable() {
	c := ic.cpus[0]
	if c.cliOwner.Load() == 0 {
		panic("hw: Enable without Disable")
	}
	c.cliNest--
	if c.cliNest == 0 {
		c.cliOwner.Store(0)
		c.cliMu.Unlock()
	}
}

// InIntr reports whether the caller is running at interrupt level.  The
// question is per-caller: the answer is true only on a dispatcher
// goroutine, so process-level code is not misclassified while a handler
// runs.  That holds on a 1-CPU machine too: a process-level goroutine
// is not suspended while the handler runs, and one that took the flag
// for its own would skip its spl raise, run unexcluded against the
// handler, and later release the handler's exclusion from a sleep.  A
// 1-CPU machine with no handler running answers from the flag alone,
// without a goroutine-id fetch.
func (ic *IntrController) InIntr() bool {
	if len(ic.cpus) == 1 && !ic.cpus[0].inIntr.Load() {
		return false
	}
	if v, ok := ic.dispIDs.Load(goid()); ok {
		return v.(*cpuCtx).inIntr.Load()
	}
	return false
}

// Count returns how many times a line's handler has been dispatched.
func (ic *IntrController) Count(line int) uint64 {
	if line < 0 || line >= NumIRQs {
		return 0
	}
	return ic.counts[line].Load()
}

// stop terminates every dispatcher (machine halt) and waits for them.
func (ic *IntrController) stop() {
	ic.stopOnce.Do(func() {
		for _, c := range ic.cpus {
			c.mu.Lock()
			c.stopped = true
			c.mu.Unlock()
			c.cond.Signal()
		}
		for _, c := range ic.cpus {
			<-c.done
		}
	})
}

// dispatch is one CPU's interrupt level: one handler at a time, lowest
// pending unmasked line first, each excluded against that CPU's cli
// sections.
func (ic *IntrController) dispatch(c *cpuCtx, started chan<- struct{}) {
	defer close(c.done)
	dispatcherID := goid() // hoisted: one goroutine serves this CPU's handlers
	ic.dispIDs.Store(dispatcherID, c)
	started <- struct{}{}
	for {
		c.mu.Lock()
		for !c.stopped && c.pending&^ic.masked.Load() == 0 {
			c.cond.Wait()
		}
		if c.stopped {
			c.mu.Unlock()
			return
		}
		ready := c.pending &^ ic.masked.Load()
		line := lowestBit(ready)
		c.pending &^= 1 << line
		c.mu.Unlock()
		ic.lmu.Lock()
		h := ic.handlers[line]
		ic.lmu.Unlock()
		ic.counts[line].Add(1)

		c.cliMu.Lock()
		c.cliOwner.Store(dispatcherID) // handlers may themselves nest Disable
		c.cliNest = 1
		c.inIntr.Store(true)
		if h != nil {
			h(line)
		}
		c.inIntr.Store(false)
		c.cliNest = 0
		c.cliOwner.Store(0)
		c.cliMu.Unlock()
	}
}

// goidFetches counts goid calls: the simulator's most expensive identity
// primitive, read like the NIC ledgers so path-shape tests can pin a hot
// path to zero fetches.
var goidFetches atomic.Uint64

// GoIDFetches reports how many goroutine-id fetches the simulator has
// made, process-wide.
func GoIDFetches() uint64 { return goidFetches.Load() }

// goid extracts the current goroutine's id from the runtime stack header
// ("goroutine N [running]: …").  It is the simulator's stand-in for
// per-CPU identity; the first line of runtime.Stack output is stable
// across Go releases.  A fetch costs microseconds and takes the runtime's
// print lock, so concurrent callers serialize on it: keep it off
// per-operation paths.
func goid() uint64 {
	goidFetches.Add(1)
	var buf [32]byte
	n := runtimeStack(buf[:])
	// Skip "goroutine ".
	var id uint64
	for i := 10; i < n; i++ {
		c := buf[i]
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

func lowestBit(v uint64) int {
	for i := 0; i < 64; i++ {
		if v&(1<<i) != 0 {
			return i
		}
	}
	return -1
}
