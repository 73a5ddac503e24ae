package main

import (
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"
)

// driver is one workload on one booted cluster.
type driver interface {
	// start brings up the server side and the client connections and
	// runs the warm-up (ARP, pools, the first-transfer ramp).
	start() error
	// run drives one phase until u says stop and every issued
	// operation has completed.
	run(p *phase, u until)
	// stop tears the connections and servers down and waits for every
	// goroutine the driver started.
	stop() error
}

// ---- stream: ttcp, the Table 1 shape ----------------------------------

const (
	streamPort    = 5001
	streamBlock   = 4096     // bytes per write, as ttcp
	streamSockBuf = 32 << 10 // ttcp -b
	streamWarm    = 4096     // warm-up blocks (16 MB)
	streamRing    = 1024     // send stamps kept; far above the blocks in flight
)

// stream sends 4 KB blocks down one connection; the receiver verifies
// each block and times it from the start of its write.
type stream struct {
	e             *env
	lfd, cfd, sfd int
	crcs          []uint32
	pool          [][]byte
	sent          int64 // blocks issued; sender goroutine only
	ring          [streamRing]struct{ start, span atomic.Int64 }
	rxErr         chan error

	mu     sync.Mutex
	cond   *sync.Cond
	cur    *phase
	recvd  int64 // blocks the receiver has verified or failed
	want   int64 // the sender waits for recvd to reach want
	rxDone bool
}

func (s *stream) start() error {
	e := s.e
	s.pool, s.crcs = payloadPool(e.seed, 64, streamBlock)
	s.cond = sync.NewCond(&s.mu)
	s.rxErr = make(chan error, 1)
	srv, cli := e.server(), e.client()
	var err error
	if s.lfd, err = srv.listen(streamPort, 1); err != nil {
		return err
	}
	acc := make(chan error, 1)
	go func() {
		var err error
		s.sfd, err = srv.accept(s.lfd)
		acc <- err
	}()
	if s.cfd, err = cli.socket(); err != nil {
		return err
	}
	if err := cli.setopt(s.cfd, "sndbuf", streamSockBuf); err != nil {
		return err
	}
	if err := cli.connect(s.cfd, e.srv.IP, streamPort, -1, 0); err != nil {
		return err
	}
	if err := <-acc; err != nil {
		return fmt.Errorf("accept: %w", err)
	}
	if err := srv.setopt(s.sfd, "rcvbuf", streamSockBuf); err != nil {
		return err
	}
	e.bg.Add(1)
	go s.receive()
	w := newPhase()
	s.run(w, until{count: streamWarm})
	return w.err()
}

// receive reads and verifies blocks until the sender shuts down.
func (s *stream) receive() {
	defer s.e.bg.Done()
	srv := s.e.server()
	blk := make([]byte, streamBlock)
	var err error
	for idx := int64(0); ; idx++ {
		slot := &s.ring[idx%streamRing]
		parent := slot.span.Load()
		got := 0
		for got < streamBlock {
			var n int
			n, err = srv.read(s.sfd, blk[got:], parent, idx)
			if err == nil && n == 0 && got > 0 {
				err = fmt.Errorf("stream ended inside block %d", idx)
			}
			if err != nil || n == 0 {
				s.finish(err)
				return
			}
			got += n
		}
		lat := time.Duration(sinceEpoch() - slot.start.Load())
		crc, verr := verify(blk, idx, s.e.seed, s.crcs)
		s.mu.Lock()
		p := s.cur
		s.recvd++
		if s.recvd == s.want {
			s.cond.Broadcast()
		}
		s.mu.Unlock()
		if verr != nil {
			p.fail(verr, true)
			continue
		}
		if t := s.e.tr.Load(); t != nil && parent > 0 {
			t.record(parent, spOp, -1, idx, slot.start.Load())
		}
		s.e.sum.add(idx, crc)
		p.ok(lat, streamBlock, time.Now())
	}
}

// finish ends the receiver: err is nil at a clean end of stream.
func (s *stream) finish(err error) {
	s.mu.Lock()
	s.rxDone = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.rxErr <- err
}

func (s *stream) run(p *phase, u until) {
	cli := s.e.client()
	s.mu.Lock()
	s.cur = p
	s.mu.Unlock()
	buf := make([]byte, streamBlock)
	for issued := int64(0); !u.done(issued); issued++ {
		idx := s.sent
		copy(buf, s.pool[mix(s.e.seed, idx)%uint64(len(s.pool))])
		stamp(buf, idx)
		slot := &s.ring[idx%streamRing]
		var id int64 = -1
		if t := s.e.tr.Load(); t != nil {
			id = t.newID()
		}
		slot.span.Store(id)
		slot.start.Store(sinceEpoch())
		if err := cli.writeAll(s.cfd, buf, id, idx); err != nil {
			p.fail(err, false)
			break
		}
		s.sent++
	}
	// The phase ends when the receiver has every block sent in it.
	s.mu.Lock()
	s.want = s.sent
	for s.recvd < s.want && !s.rxDone {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

func (s *stream) stop() error {
	cli, srv := s.e.client(), s.e.server()
	var err error
	cli.n.Do(func() { err = cli.n.C.Shutdown(s.cfd, 1) })
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	rxErr := <-s.rxErr
	cli.close(s.cfd, -1, 0)
	srv.close(s.sfd, -1, 0)
	srv.close(s.lfd, -1, 0)
	s.e.bg.Wait()
	return rxErr
}

// ---- rpc: rtcp, the Table 2 shape -------------------------------------

const (
	rpcPort = 5002
	rpcWarm = 2000 // warm-up rounds
)

// rpc runs 1-byte ping-pong rounds on one nodelay connection.
type rpc struct {
	e        *env
	lfd, cfd int
	rounds   int64 // rounds issued; client goroutine only
	srvErr   chan error
}

func (r *rpc) start() error {
	e := r.e
	srv, cli := e.server(), e.client()
	r.srvErr = make(chan error, 1)
	var err error
	if r.lfd, err = srv.listen(rpcPort, 1); err != nil {
		return err
	}
	e.bg.Add(1)
	go r.echo()
	if r.cfd, err = cli.socket(); err != nil {
		return err
	}
	if err := cli.setopt(r.cfd, "nodelay", 1); err != nil {
		return err
	}
	if err := cli.connect(r.cfd, e.srv.IP, rpcPort, -1, 0); err != nil {
		return err
	}
	w := newPhase()
	r.run(w, until{count: rpcWarm})
	return w.err()
}

// echo serves the one connection: every byte read is written back.
func (r *rpc) echo() {
	defer r.e.bg.Done()
	srv := r.e.server()
	fd, err := srv.accept(r.lfd)
	if err != nil {
		r.srvErr <- fmt.Errorf("accept: %w", err)
		return
	}
	defer srv.close(fd, -1, 0)
	var b [1]byte
	for k := int64(0); ; k++ {
		n, err := srv.read(fd, b[:], -1, k)
		if err != nil || n == 0 {
			r.srvErr <- err
			return
		}
		if err := srv.writeAll(fd, b[:], -1, k); err != nil {
			r.srvErr <- err
			return
		}
	}
}

func (r *rpc) run(p *phase, u until) {
	cli := r.e.client()
	var b [1]byte
	for issued := int64(0); !u.done(issued); issued++ {
		idx := r.rounds
		r.rounds++
		want := byte(mix(r.e.seed, idx))
		id, end := r.e.opSpan(spOp, idx)
		t0 := time.Now()
		b[0] = want
		err := cli.writeAll(r.cfd, b[:], id, idx)
		if err == nil {
			err = cli.readFull(r.cfd, b[:], id, idx)
		}
		done := time.Now()
		end()
		if err != nil {
			p.fail(err, false)
			return // the connection is unusable
		}
		if b[0] != want {
			p.fail(fmt.Errorf("%w: round %d echoed %#x, sent %#x", errCorrupt, idx, b[0], want), true)
			continue
		}
		r.e.sum.add(idx, crc32.ChecksumIEEE(b[:]))
		p.ok(done.Sub(t0), 2, done)
	}
}

func (r *rpc) stop() error {
	cli, srv := r.e.client(), r.e.server()
	var err error
	cli.n.Do(func() { err = cli.n.C.Shutdown(r.cfd, 1) })
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	srvErr := <-r.srvErr
	cli.close(r.cfd, -1, 0)
	srv.close(r.lfd, -1, 0)
	r.e.bg.Wait()
	return srvErr
}

// ---- churn: the connection lifecycle ----------------------------------

const (
	churnPort    = 5003
	churnBytes   = 512
	churnWorkers = 2
	churnBacklog = 128
	churnWarm    = 1000 // warm-up cycles
)

// churn runs connect / 512 B echo / close cycles from two workers; the
// server closes first, so TIME_WAIT collects on the server.
type churn struct {
	e    *env
	lfd  int
	next atomic.Int64 // cycle index across phases
	pool [][]byte
	crcs []uint32
}

func (c *churn) start() error {
	e := c.e
	c.pool, c.crcs = payloadPool(e.seed, 64, churnBytes)
	var err error
	if c.lfd, err = e.server().listen(churnPort, churnBacklog); err != nil {
		return err
	}
	e.bg.Add(1)
	go c.acceptLoop()
	w := newPhase()
	c.run(w, until{count: churnWarm})
	return w.err()
}

func (c *churn) acceptLoop() {
	defer c.e.bg.Done()
	srv := c.e.server()
	var k int64
	for {
		fd, err := srv.accept(c.lfd)
		if err != nil {
			return // listener closed: run over
		}
		k++
		c.e.bg.Add(1)
		go c.serve(fd, k)
	}
}

// serve answers one connection: read the request, echo it, close.
func (c *churn) serve(fd int, k int64) {
	defer c.e.bg.Done()
	srv := c.e.server()
	id, end := c.e.opSpan(spSrvReq, k)
	defer end()
	buf := make([]byte, churnBytes)
	if srv.readFull(fd, buf, id, k) == nil {
		_ = srv.writeAll(fd, buf, id, k) // a failed echo fails the client's cycle
	}
	srv.close(fd, id, k)
}

func (c *churn) run(p *phase, u until) {
	var issued atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < churnWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := make([]byte, churnBytes)
			echo := make([]byte, churnBytes)
			for !u.done(issued.Add(1) - 1) {
				idx := c.next.Add(1) - 1
				copy(payload, c.pool[mix(c.e.seed, idx)%uint64(len(c.pool))])
				stamp(payload, idx)
				t0 := time.Now()
				err := c.cycle(idx, payload, echo)
				done := time.Now()
				if err != nil {
					p.fail(err, false)
					continue
				}
				crc, err := verify(echo, idx, c.e.seed, c.crcs)
				if err != nil {
					p.fail(err, true)
					continue
				}
				c.e.sum.add(idx, crc)
				p.ok(done.Sub(t0), 2*churnBytes, done)
			}
		}()
	}
	wg.Wait()
}

// cycle is one connection: connect, send the request, read the echo,
// close.
func (c *churn) cycle(idx int64, payload, echo []byte) error {
	cli := c.e.client()
	id, end := c.e.opSpan(spOp, idx)
	defer end()
	fd, err := cli.socket()
	if err != nil {
		return err
	}
	defer cli.close(fd, id, idx)
	if err := cli.connect(fd, c.e.srv.IP, churnPort, id, idx); err != nil {
		return err
	}
	if err := cli.writeAll(fd, payload, id, idx); err != nil {
		return err
	}
	return cli.readFull(fd, echo, id, idx)
}

func (c *churn) stop() error {
	c.e.server().close(c.lfd, -1, 0)
	c.e.bg.Wait()
	return nil
}
