package main

import (
	"testing"
	"time"
)

// simClock is a clock that only moves when told to: Sleep and the
// simulated service time advance it.
type simClock struct{ now time.Time }

func (c *simClock) Now() time.Time        { return c.now }
func (c *simClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// runOpenLoop paces 50 requests at 1 ms intervals through one
// connection whose service takes 100 µs, except that request stall
// (if ≥ 0) takes stallFor.
func runOpenLoop(stall int64, stallFor time.Duration) *phase {
	t0 := time.Unix(1000, 0)
	clk := &simClock{now: t0}
	o := &openLoop{start: t0, interval: time.Millisecond, u: until{deadline: t0.Add(50 * time.Millisecond)}}
	p := &phase{start: t0}
	o.pace(clk, p, func(k int64) (int, error) {
		if k == stall {
			clk.Sleep(stallFor)
		} else {
			clk.Sleep(100 * time.Microsecond)
		}
		return 1, nil
	})
	return p
}

func TestOpenLoopOnSchedule(t *testing.T) {
	p := runOpenLoop(-1, 0)
	if p.ops != 50 {
		t.Fatalf("ops = %d, want 50", p.ops)
	}
	for k, l := range p.lat {
		if l != 100*time.Microsecond {
			t.Errorf("request %d latency %v, want the 100µs service time", k, l)
		}
	}
	if lag := quantile(sortDurations(p.lag), 0.99); lag != 0 || p.backlogMax != 0 {
		t.Errorf("on schedule: lag p99 %v, backlog %d; want 0, 0", lag, p.backlogMax)
	}
}

func TestOpenLoopStallChargesQueuedRequests(t *testing.T) {
	p := runOpenLoop(10, 20*time.Millisecond)
	if p.ops != 50 {
		t.Fatalf("ops = %d, want 50", p.ops)
	}
	// Request 10 is due at 10 ms and finishes at 30 ms.  Request 11,
	// due at 11 ms, cannot be sent before 30 ms: it waits 19 ms in the
	// queue and is charged for it.
	if l := p.lat[10]; l != 20*time.Millisecond {
		t.Errorf("stalled request latency %v, want 20ms", l)
	}
	if l := p.lat[11]; l != 19*time.Millisecond+100*time.Microsecond {
		t.Errorf("request behind the stall: latency %v, want 19.1ms", l)
	}
	// Every request behind the stall until the queue drains is late.
	late := 0
	for _, l := range p.lag {
		if l > 0 {
			late++
		}
	}
	if late < 19 {
		t.Errorf("%d late sends, want at least the 19 queued behind the stall", late)
	}
	if lag := quantile(sortDurations(p.lag), 0.99); lag < 18*time.Millisecond {
		t.Errorf("lag p99 %v did not move with the stall", lag)
	}
	if p.backlogMax < 18 {
		t.Errorf("backlog max %d, want the ~19 requests due during the stall", p.backlogMax)
	}
	// None of that lateness is the generator's own: it never overslept.
	if len(p.oversleep) > 0 && quantile(sortDurations(p.oversleep), 1) != 0 {
		t.Errorf("oversleep %v charged to the generator", p.oversleep)
	}
}

func TestOpenLoopStopsAtDeadline(t *testing.T) {
	// One request takes the whole phase: nothing more is sent, and the
	// requests due meanwhile are left unsent rather than run late.
	p := runOpenLoop(0, time.Second)
	if p.ops != 1 {
		t.Errorf("ops = %d, want 1", p.ops)
	}
}
