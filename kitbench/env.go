package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"oskit/internal/evalrig"
)

// env is one booted cluster with the benchmark's view of it: the
// server (Nodes[0]) and the one client node (Nodes[1]), the workload
// seed, and the tracer while a traced phase runs.
type env struct {
	c        *evalrig.Cluster
	srv, cli *evalrig.Node
	seed     int64
	tr       atomic.Pointer[tracer]
	sum      checksum

	// bg counts the goroutines the workload's server side started;
	// the driver's stop waits for them.
	bg sync.WaitGroup
}

func newRand(seed, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix(seed, salt))))
}

// sock is one node's socket layer as the benchmark calls it: every call
// goes through Node.Do (the identity on an SMP node, the §4.7.4 lock on
// a serialized one) and, while a traced phase runs, becomes a span.
type sock struct {
	e      *env
	n      *evalrig.Node
	server bool
}

func (e *env) client() sock { return sock{e: e, n: e.cli} }
func (e *env) server() sock { return sock{e: e, n: e.srv, server: true} }

// timed runs fn as one call into the kit, recorded as a span named
// name under parent while tracing.
func (s sock) timed(name uint8, parent, req int64, fn func()) {
	t := s.e.tr.Load()
	if t == nil {
		s.n.Do(fn)
		return
	}
	t0 := t.now()
	s.n.Do(fn)
	t.record(0, name, parent, req, t0)
}

func (s sock) pick(cli, srv uint8) uint8 {
	if s.server {
		return srv
	}
	return cli
}

func (s sock) socket() (fd int, err error) {
	s.n.Do(func() { fd, err = s.n.C.Socket(2, 1, 0) })
	return fd, err
}

func (s sock) setopt(fd int, name string, v int) error {
	var err error
	s.n.Do(func() { err = s.n.C.SetSockOpt(fd, name, v) })
	if err != nil {
		return fmt.Errorf("setsockopt %s: %w", name, err)
	}
	return nil
}

// listen opens a listening socket on the node's port.
func (s sock) listen(port uint16, backlog int) (int, error) {
	fd, err := s.socket()
	if err != nil {
		return 0, err
	}
	s.n.Do(func() {
		if err = s.n.C.SetSockOpt(fd, "reuseaddr", 1); err != nil {
			return
		}
		if err = s.n.C.Bind(fd, evalrig.Addr(s.n.IP, port)); err != nil {
			return
		}
		err = s.n.C.Listen(fd, backlog)
	})
	if err != nil {
		s.close(fd, -1, 0)
		return 0, fmt.Errorf("listen on %d: %w", port, err)
	}
	return fd, nil
}

func (s sock) connect(fd int, to [4]byte, port uint16, parent, req int64) (err error) {
	s.timed(spConnect, parent, req, func() { err = s.n.C.Connect(fd, evalrig.Addr(to, port)) })
	if err != nil {
		return fmt.Errorf("connect: %w", err)
	}
	return nil
}

func (s sock) accept(lfd int) (fd int, err error) {
	s.timed(spAccept, -1, 0, func() { fd, _, err = s.n.C.Accept(lfd) })
	return fd, err
}

func (s sock) close(fd int, parent, req int64) {
	s.timed(s.pick(spCloseCli, spCloseSrv), parent, req, func() { _ = s.n.C.Close(fd) })
}

// writeAll pushes all of b through the socket.
func (s sock) writeAll(fd int, b []byte, parent, req int64) error {
	for len(b) > 0 {
		var n int
		var err error
		s.timed(s.pick(spWriteCli, spWriteSrv), parent, req, func() { n, err = s.n.C.Write(fd, b) })
		if err != nil {
			return fmt.Errorf("write: %w", err)
		}
		b = b[n:]
	}
	return nil
}

// read is one Read call.
func (s sock) read(fd int, b []byte, parent, req int64) (n int, err error) {
	s.timed(s.pick(spReadCli, spReadSrv), parent, req, func() { n, err = s.n.C.Read(fd, b) })
	return n, err
}

// readFull fills b, failing on an early end of stream.
func (s sock) readFull(fd int, b []byte, parent, req int64) error {
	for got := 0; got < len(b); {
		n, err := s.read(fd, b[got:], parent, req)
		if err != nil {
			return fmt.Errorf("read at %d: %w", got, err)
		}
		if n == 0 {
			return fmt.Errorf("read: stream ended at %d of %d bytes", got, len(b))
		}
		got += n
	}
	return nil
}

// opSpan starts one generator-side operation span while tracing: it
// returns the span id children name as parent, and a function that
// records the span when the operation ends.
func (e *env) opSpan(name uint8, req int64) (int64, func()) {
	t := e.tr.Load()
	if t == nil {
		return -1, func() {}
	}
	id, t0 := t.newID(), t.now()
	return id, func() { t.record(id, name, -1, req, t0) }
}

// until is a phase's stopping rule: a deadline for measured phases, an
// operation count for warm-up.
type until struct {
	deadline time.Time
	count    int64
}

func (u until) done(issued int64) bool {
	if u.count > 0 {
		return issued >= u.count
	}
	return !time.Now().Before(u.deadline)
}
