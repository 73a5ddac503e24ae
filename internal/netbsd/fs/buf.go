// Package netbsdfs is the kit's NetBSD-derived disk file system (paper
// §3.8).  NetBSD's file system code was chosen by the OSKit because it
// was the most cleanly separated from its virtual memory system; the
// kit's version keeps that shape: a buffer cache over any BlkIO, an
// FFS-style on-disk layout (superblock, bitmaps, inode table with
// direct/indirect/double-indirect blocks, directory files), and a thin
// COM glue exporting FileSystem/Dir/File whose names are single pathname
// components — the granularity that let the Utah secure file server
// interpose per-component permission checks without touching these
// internals.
//
// The donor execution environment is the BSD glue: blocking in the
// buffer cache goes through sleep/wakeup (B_BUSY/B_WANTED, §4.7.6), and
// the code expects to run under the blocking model of §4.7.4 — one
// process-level thread inside the component, interrupt exclusion via
// spl.
package netbsdfs

import (
	"sync/atomic"

	"oskit/internal/com"
	bsdglue "oskit/internal/freebsd/glue"
	"oskit/internal/stats"
)

// BlockSize is the file system block size.
const BlockSize = 1024

// Buffer-cache geometry.
const nbufs = 64

// buf is one cache buffer (struct buf, pruned).
type buf struct {
	blkno uint32
	data  []byte
	valid bool
	dirty bool
	busy  bool
	want  bool

	lruPrev, lruNext *buf
	event            uint32

	// pins counts sendfile exports holding this buffer's pages on the
	// wire (E15).  A pinned buffer stays cached — getblk's eviction
	// scan skips it — so the external mbufs referencing b.data keep
	// seeing the block they mapped.  Atomic because unpin runs from
	// transmit-completion context (the network side releasing the last
	// mbuf reference), not under the FFS component entry.
	pins atomic.Int32
}

// bcache is the buffer cache for one mounted file system.
type bcache struct {
	g    *bsdglue.Glue
	dev  com.BlkIO
	bufs [nbufs]*buf
	// hash by block number; small and simple.
	hash map[uint32]*buf
	// LRU list: head = most recent.
	lruHead, lruTail *buf

	// com.Stats export: the buffer-cache behaviour counters, registered
	// as "netbsd_fs" so ttcp-style rigs and oskit-stats see hit rates
	// next to the disk traffic.
	scReads  *stats.Counter
	scWrites *stats.Counter
	scHits   *stats.Counter
	scMisses *stats.Counter
	scPins   *stats.Counter
	scUnpins *stats.Counter
	gPinned  *stats.Gauge
}

func newBcache(g *bsdglue.Glue, dev com.BlkIO, eventBase uint32) *bcache {
	c := &bcache{g: g, dev: dev, hash: map[uint32]*buf{}}
	set := stats.NewSet("netbsd_fs")
	c.scReads = set.Counter("bcache.disk_reads")
	c.scWrites = set.Counter("bcache.disk_writes")
	c.scHits = set.Counter("bcache.hits")
	c.scMisses = set.Counter("bcache.misses")
	c.scPins = set.Counter("bcache.pins")
	c.scUnpins = set.Counter("bcache.unpins")
	c.gPinned = set.Gauge("bcache.pinned")
	g.Env().Registry.Register(com.StatsIID, set)
	set.Release()
	for i := range c.bufs {
		b := &buf{data: make([]byte, BlockSize), blkno: ^uint32(0), event: eventBase + uint32(i)*8}
		c.bufs[i] = b
		c.lruPush(b)
	}
	return c
}

func (c *bcache) lruPush(b *buf) {
	b.lruPrev = nil
	b.lruNext = c.lruHead
	if c.lruHead != nil {
		c.lruHead.lruPrev = b
	}
	c.lruHead = b
	if c.lruTail == nil {
		c.lruTail = b
	}
}

func (c *bcache) lruRemove(b *buf) {
	if b.lruPrev != nil {
		b.lruPrev.lruNext = b.lruNext
	} else if c.lruHead == b {
		c.lruHead = b.lruNext
	}
	if b.lruNext != nil {
		b.lruNext.lruPrev = b.lruPrev
	} else if c.lruTail == b {
		c.lruTail = b.lruPrev
	}
	b.lruPrev, b.lruNext = nil, nil
}

// getblk locks the buffer for blkno, evicting the LRU victim if needed.
// Blocks (tsleep) while the wanted buffer is busy — the donor
// B_BUSY/B_WANTED protocol.
func (c *bcache) getblk(blkno uint32) (*buf, error) {
	for {
		if b, ok := c.hash[blkno]; ok {
			if b.busy {
				b.want = true
				c.g.Tsleep(b.event, "getblk")
				continue
			}
			b.busy = true
			c.lruRemove(b)
			c.scHits.Inc()
			return b, nil
		}
		// Miss: evict the least recently used idle buffer.  Pinned
		// buffers (pages on the wire via sendfile) are not victims:
		// eviction would re-point b.data at another block while
		// external mbufs still reference it.
		victim := c.lruTail
		for victim != nil && (victim.busy || victim.pins.Load() > 0) {
			victim = victim.lruPrev
		}
		if victim == nil {
			// Everything busy or pinned: wait for any release/unpin.
			c.g.Tsleep(c.bufs[0].event, "bufwait")
			continue
		}
		if victim.dirty {
			if err := c.writeback(victim); err != nil {
				return nil, err
			}
		}
		// Unhash the victim under its old identity even when it is
		// *invalid* (a fault-failed read leaves the buffer in the hash
		// with valid clear): a stale entry would alias the old block
		// number to this buffer after it re-reads as the new block, and
		// bread would then serve the wrong block's bytes as the old one.
		if c.hash[victim.blkno] == victim {
			delete(c.hash, victim.blkno)
		}
		victim.blkno = blkno
		victim.valid = false
		victim.dirty = false
		victim.busy = true
		c.lruRemove(victim)
		c.hash[blkno] = victim
		c.scMisses.Inc()
		return victim, nil
	}
}

// bread returns the locked, filled buffer for blkno.
func (c *bcache) bread(blkno uint32) (*buf, error) {
	b, err := c.getblk(blkno)
	if err != nil {
		return nil, err
	}
	if !b.valid {
		// The device read blocks inside the driver component, whose
		// sleep opens the node lock; while this thread waited, another
		// may have entered and left this component, clobbering the
		// uniprocessor glue's single current process (§4.7.5).
		// Re-manufacture it for the rest of the caller's component call
		// — the entry epilogue still restores the true outer value.
		n, err := c.dev.Read(b.data, uint64(blkno)*BlockSize)
		_, _ = c.g.Enter("bread")
		if err != nil || n != BlockSize {
			b.busy = false
			c.lruPush(b)
			return nil, com.ErrIO
		}
		b.valid = true
		c.scReads.Inc()
	}
	return b, nil
}

// brelse unlocks a buffer, waking waiters.
func (c *bcache) brelse(b *buf) {
	b.busy = false
	c.lruPush(b)
	if b.want {
		b.want = false
		c.g.Wakeup(b.event)
	}
}

// bdwrite marks the buffer dirty and releases it (delayed write).
func (c *bcache) bdwrite(b *buf) {
	b.dirty = true
	c.brelse(b)
}

// writeback flushes one buffer.
func (c *bcache) writeback(b *buf) error {
	// Same cross-component discipline as bread: the driver sleep may
	// have let another thread clobber the UP glue's current process.
	n, err := c.dev.Write(b.data, uint64(b.blkno)*BlockSize)
	_, _ = c.g.Enter("bwrite")
	if err != nil || n != BlockSize {
		return com.ErrIO
	}
	b.dirty = false
	c.scWrites.Inc()
	return nil
}

// pin adds one eviction barrier to b.  Called with b held busy (the
// sendfile export path pins under bread), so the count is in place
// before any other entry could pick b as a victim.
func (c *bcache) pin(b *buf) {
	b.pins.Add(1)
	c.scPins.Inc()
	c.gPinned.Add(1)
}

// unpin drops one eviction barrier.  Runs from transmit-completion
// context — the network stack releasing the last reference on an
// external mbuf — NOT under the FFS component entry, so it touches
// only atomics plus the interrupt-safe Wakeup.  Dropping to zero wakes
// the "bufwait" sleepers: a getblk that found everything busy-or-
// pinned rescans once a buffer becomes evictable again.
func (c *bcache) unpin(b *buf) {
	if b.pins.Add(-1) == 0 {
		c.g.Wakeup(c.bufs[0].event)
	}
	c.scUnpins.Inc()
	c.gPinned.Add(-1)
}

// sync flushes every dirty buffer.
func (c *bcache) sync() error {
	for _, b := range c.bufs {
		if b.valid && b.dirty && !b.busy {
			if err := c.writeback(b); err != nil {
				return err
			}
		}
	}
	return nil
}
