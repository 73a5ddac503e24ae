package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"time"
)

// errCorrupt marks an operation whose payload came back wrong.
var errCorrupt = errors.New("payload mismatch")

// sumOps is how many operations, by index, the run checksum covers.
// Every warm-up alone completes this many, so two runs with one seed
// print the same checksum whatever their length.
const sumOps = 512

// phase collects one measured stretch of a workload: the latency of
// every verified operation, the failures, and the payload moved.
type phase struct {
	start time.Time

	mu      sync.Mutex
	lat     []time.Duration // per verified operation
	ops     int             // operations verified
	failed  int             // operations that errored or came back wrong
	corrupt int             // of failed: payload mismatches
	bytes   int64           // verified payload bytes delivered
	end     time.Time       // completion of the last operation
	errs    []string        // first few failures, for diagnosis

	// Open-loop generator accounting (fileserve only).
	lag        []time.Duration // send time minus due time
	oversleep  []time.Duration // of lag: sends the generator woke late for
	backlogMax int64           // most requests due but not yet sent
	unsent     int64           // requests due by the deadline but never sent
}

func newPhase() *phase { return &phase{start: time.Now()} }

// ok records one verified operation.
func (p *phase) ok(lat time.Duration, bytes int, at time.Time) {
	p.mu.Lock()
	p.lat = append(p.lat, lat)
	p.ops++
	p.bytes += int64(bytes)
	if at.After(p.end) {
		p.end = at
	}
	p.mu.Unlock()
}

// fail records one failed operation; corrupt marks a payload mismatch.
func (p *phase) fail(err error, corrupt bool) {
	p.mu.Lock()
	p.failed++
	if corrupt {
		p.corrupt++
	}
	if len(p.errs) < 4 {
		p.errs = append(p.errs, err.Error())
	}
	p.mu.Unlock()
}

// paced records the generator's view of one open-loop request; slept
// marks a send the generator waited for, whose lateness is its own.
func (p *phase) paced(late time.Duration, backlog int64, slept bool) {
	p.mu.Lock()
	p.lag = append(p.lag, late)
	if slept {
		p.oversleep = append(p.oversleep, late)
	}
	if backlog > p.backlogMax {
		p.backlogMax = backlog
	}
	p.mu.Unlock()
}

// elapsed is the phase's length, start to last completion.
func (p *phase) elapsed() time.Duration {
	if p.end.IsZero() {
		return time.Since(p.start)
	}
	return p.end.Sub(p.start)
}

// checksum is the run's order-independent payload checksum: the XOR,
// over operations 0 … sumOps-1, of each verified payload's CRC mixed
// with its index, so that repeats of one payload cannot cancel.
type checksum struct {
	mu  sync.Mutex
	sum uint32
	n   int
}

func (c *checksum) add(idx int64, crc uint32) {
	if idx >= sumOps {
		return
	}
	c.mu.Lock()
	c.sum ^= crc ^ uint32(idx)*0x9e3779b9
	c.n++
	c.mu.Unlock()
}

func (c *checksum) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n < sumOps {
		return fmt.Sprintf("incomplete (%d of %d ops)", c.n, sumOps)
	}
	return fmt.Sprintf("%08x", c.sum)
}

// payloadPool derives count seed-determined payloads of size bytes and
// their CRCs.  Operations pick from it by a hash of their index and
// stamp the index into the first 8 bytes, so every payload is distinct
// and a misdelivered one is caught.
func payloadPool(seed int64, count, size int) ([][]byte, []uint32) {
	rng := newRand(seed, 0x706f6f6c)
	pool := make([][]byte, count)
	crcs := make([]uint32, count)
	for i := range pool {
		pool[i] = make([]byte, size)
		rng.Read(pool[i])
		crcs[i] = crc32.ChecksumIEEE(pool[i][8:])
	}
	return pool, crcs
}

// stamp writes op index idx into the payload header.
func stamp(b []byte, idx int64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(idx >> (8 * i))
	}
}

// stamped reads the op index from a payload header.
func stamped(b []byte) int64 {
	var v int64
	for i := 0; i < 8; i++ {
		v |= int64(b[i]) << (8 * i)
	}
	return v
}

// mix is a seed-keyed hash of an operation index (splitmix64).
func mix(seed, idx int64) uint64 {
	z := uint64(seed) ^ uint64(idx)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// verify checks a received payload against the pool entry its index
// selects, returning the payload CRC.
func verify(b []byte, idx int64, seed int64, crcs []uint32) (uint32, error) {
	if got := stamped(b); got != idx {
		return 0, fmt.Errorf("%w: op %d carried index %d", errCorrupt, idx, got)
	}
	want := crcs[mix(seed, idx)%uint64(len(crcs))]
	if got := crc32.ChecksumIEEE(b[8:]); got != want {
		return 0, fmt.Errorf("%w: op %d crc %08x, want %08x", errCorrupt, idx, got, want)
	}
	return want, nil
}

// err reports a phase that had failures; a warm-up must have none.
func (p *phase) err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failed == 0 {
		return nil
	}
	return fmt.Errorf("%d operations failed, first: %v", p.failed, p.errs)
}

func isCorrupt(err error) bool { return errors.Is(err, errCorrupt) }
