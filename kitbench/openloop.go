package main

import (
	"sync/atomic"
	"time"
)

// openLoop paces one phase's requests on a fixed schedule: request k
// is due at start + k·interval whether or not earlier ones have
// finished, as independent users would send it.  Workers take tickets
// in order; a worker that is free early waits for the due time, one
// that is busy sends late, and the request's latency counts from its
// due time, so a stall is charged to every request queued behind it.
// An interval of 0 is a closed loop (every ticket is due at once).
type openLoop struct {
	start    time.Time
	interval time.Duration
	u        until
	next     atomic.Int64
}

// clock is the time source pace runs on (the real one, or a simulated
// one in tests).
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// dueBy is how many tickets are due by now.
func (o *openLoop) dueBy(now time.Time) int64 {
	if o.interval <= 0 {
		return o.next.Load()
	}
	if now.Before(o.start) {
		return 0
	}
	return int64(now.Sub(o.start)/o.interval) + 1
}

// pace is one worker of an open-loop phase.  For each ticket it waits
// for the due time, records how late the send was and how many due
// requests were still unsent (gen.lag_us, gen.backlog_max), calls do,
// and records the result with its latency from the due time.  It
// returns at the phase's deadline, or when the next ticket would be due
// after it (for a count rule, when the count is issued).
func (o *openLoop) pace(clk clock, p *phase, do func(k int64) (bytes int, err error)) {
	for {
		k := o.next.Add(1) - 1
		due := o.start.Add(time.Duration(k) * o.interval)
		if o.u.count > 0 {
			if k >= o.u.count {
				return
			}
		} else if !due.Before(o.u.deadline) || !clk.Now().Before(o.u.deadline) {
			return // due tickets left unsent at the deadline are a backlog
		}
		wait := due.Sub(clk.Now())
		if wait > 0 {
			clk.Sleep(wait)
		}
		sent := clk.Now()
		if o.interval > 0 {
			p.paced(sent.Sub(due), max(0, o.dueBy(sent)-k-1), wait > 0)
		} else {
			due = sent
		}
		n, err := do(k)
		if err != nil {
			p.fail(err, isCorrupt(err))
			continue
		}
		done := clk.Now()
		p.ok(done.Sub(due), n, done)
	}
}
