package bsdglue

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// smpGlue is a glue switched to the SMP discipline.
func smpGlue(t *testing.T) *Glue {
	t.Helper()
	g := testGlue(t)
	g.SetSMP(true)
	return g
}

// panicRecorder replaces env.Panic with a recorder that returns, so a
// test can observe the report without unwinding the caller.
func panicRecorder(g *Glue) func() []string {
	var mu sync.Mutex
	var got []string
	g.Env().Panic = func(format string, args ...any) {
		mu.Lock()
		got = append(got, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), got...)
	}
}

// TestSMPSleepersWokenByOwnEvent: on an SMP glue each entry sleeps as
// the proc its own Enter returned, with no per-thread table between
// them.  Several threads enter at once and sleep on distinct events —
// half of them colliding in one hash bucket — and each is woken by its
// own Wakeup and by no other.
func TestSMPSleepersWokenByOwnEvent(t *testing.T) {
	g := smpGlue(t)
	const n = 6
	events := make([]uint32, n)
	for i := range events {
		if i%2 == 0 {
			events[i] = 0x4000 + uint32(i)*slpqueSize*8 // one bucket
		} else {
			events[i] = 0x8000 + uint32(i)*8
		}
	}
	woke := make([]chan struct{}, n)
	procs := make(chan *Proc, n)
	for i := range woke {
		woke[i] = make(chan struct{})
		go func(i int) {
			p, restore := g.Enter("smp")
			defer restore()
			procs <- p
			g.SleepPrepare(p, events[i], "smpwait")
			g.SleepCommit(p)
			close(woke[i])
		}(i)
	}
	seen := map[*Proc]bool{}
	for i := 0; i < n; i++ {
		seen[<-procs] = true
	}
	if len(seen) != n {
		t.Fatalf("%d concurrent entries got %d distinct procs", n, len(seen))
	}
	deadline := time.After(2 * time.Second)
	for {
		asleep := 0
		for _, ev := range events {
			asleep += g.SleepersOn(ev)
		}
		if asleep == n {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("%d of %d sleepers enqueued", asleep, n)
		case <-time.After(time.Millisecond):
		}
	}
	if g.Curproc != nil {
		t.Fatalf("SMP entries published a current process: %+v", g.Curproc)
	}

	// Wake in reverse order: each Wakeup releases its own sleeper only.
	for i := n - 1; i >= 0; i-- {
		g.Wakeup(events[i])
		select {
		case <-woke[i]:
		case <-time.After(2 * time.Second):
			t.Fatalf("sleeper %d not woken by its own event", i)
		}
		for j := 0; j < i; j++ {
			select {
			case <-woke[j]:
				t.Fatalf("sleeper %d woken by event %#x of sleeper %d", j, events[i], i)
			default:
			}
			if g.SleepersOn(events[j]) != 1 {
				t.Fatalf("sleeper %d lost from its queue by Wakeup(%#x)", j, events[i])
			}
		}
	}
}

// TestSMPSleepPrepareNilProcPanics: a sleep that names no process is a
// glue bug, reported through env.Panic before anything is enqueued.
func TestSMPSleepPrepareNilProcPanics(t *testing.T) {
	g := smpGlue(t)
	panics := panicRecorder(g)
	g.SleepPrepare(nil, 0x100, "orphan")
	got := panics()
	if len(got) != 1 || !strings.Contains(got[0], "no current process") {
		t.Fatalf("env.Panic reports = %q, want one no-current-process report", got)
	}
	if g.SleepersOn(0x100) != 0 {
		t.Fatal("a nil proc was enqueued")
	}
}

// TestSMPTsleepRefuses: Tsleep reads the current-process global, which an
// SMP glue does not keep, so it refuses through env.Panic instead of
// sleeping as nobody.
func TestSMPTsleepRefuses(t *testing.T) {
	g := smpGlue(t)
	panics := panicRecorder(g)
	_, restore := g.Enter("donor")
	defer restore()
	g.Tsleep(0x200, "donor")
	got := panics()
	if len(got) != 1 || !strings.Contains(got[0], "SMP glue") {
		t.Fatalf("env.Panic reports = %q, want one SMP-glue refusal", got)
	}
	if g.SleepersOn(0x200) != 0 {
		t.Fatal("Tsleep on an SMP glue enqueued a sleeper")
	}
}
