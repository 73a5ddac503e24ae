package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"oskit/internal/httpd"
)

const (
	fsPort    = 8080
	fsFiles   = 64
	fsBytes   = 16 << 10 // per file: the tree is 16× the 64 KB buffer cache
	fsSectors = 16384    // an 8 MB disk
	fsConns   = 2        // keep-alive client connections
	fsWarm    = 512      // warm-up requests, closed loop

	// fsRate is the offered load, about half the closed-loop capacity
	// of this configuration on the reference host (see README.md).
	fsRate = 250 // requests per second

	// oversleepLimit bounds the generator's own lateness (p99 of its
	// wake-ups past a due time): four request intervals, well above
	// the Go scheduler's 10 ms preemption quantum, which is what a
	// wake-up waits for when both CPUs run the simulated machines.
	oversleepLimit = 4 * time.Second / fsRate
)

// fileserve serves a seed-derived tree of fsFiles files over HTTP/1.1
// from the server's disk; two keep-alive connections request files
// Zipf(s=1)-popular, open loop at fsRate.
type fileserve struct {
	e     *env
	lfd   int
	root  *httpd.SecureRoot
	crcs  []uint32  // per file
	cum   []float64 // Zipf cumulative weights, by popularity rank
	rank  []int     // popularity rank → file
	conns [fsConns]*httpConn
	base  int64 // global index of the current phase's ticket 0
}

// fileOf picks request g's file: a Zipf(s=1) rank from a seed-keyed
// hash of g, mapped through the seed's popularity permutation.
func (f *fileserve) fileOf(g int64) int {
	u := float64(mix(f.e.seed, g)>>11) / (1 << 53) * f.cum[len(f.cum)-1]
	return f.rank[sort.SearchFloat64s(f.cum, u)]
}

func (f *fileserve) start() error {
	e := f.e
	f.cum = make([]float64, fsFiles)
	total := 0.0
	for r := range f.cum {
		total += 1 / float64(r+1)
		f.cum[r] = total
	}
	f.rank = newRand(e.seed, 0x72616e6b).Perm(fsFiles)
	if err := f.populate(); err != nil {
		return err
	}

	srv := e.server()
	f.root = httpd.NewSecureRoot(e.srv.FSRoot, 1000)
	hs := &httpd.Server{C: e.srv.C, Root: f.root, Do: f.hook}
	var err error
	if f.lfd, err = srv.listen(fsPort, 16); err != nil {
		return err
	}
	e.bg.Add(1)
	go func() {
		defer e.bg.Done()
		for {
			fd, err := srv.accept(f.lfd)
			if err != nil {
				return // listener closed: run over
			}
			e.bg.Add(1)
			go func() {
				defer e.bg.Done()
				hs.Serve(fd)
			}()
		}
	}()
	for i := range f.conns {
		f.conns[i] = &httpConn{s: e.client(), to: e.srv.IP}
	}
	w := newPhase()
	f.run(w, until{count: fsWarm})
	return w.err()
}

// populate formats and mounts the server's disk and writes the tree
// through the kit's POSIX layer: /pub/f0 … /pub/f63.
func (f *fileserve) populate() error {
	n := f.e.srv
	if err := n.MountFS(); err != nil {
		return err
	}
	var err error
	n.Do(func() { err = n.C.Mkdir("/pub", 0o755) })
	if err != nil {
		return fmt.Errorf("mkdir /pub: %w", err)
	}
	f.crcs = make([]uint32, fsFiles)
	body := make([]byte, fsBytes)
	for i := range f.crcs {
		newRand(f.e.seed, 0x66696c65+int64(i)).Read(body)
		f.crcs[i] = crc32.ChecksumIEEE(body)
		n.Do(func() { err = n.C.WriteFile(fmt.Sprintf("/pub/f%d", i), body, 0o644) })
		if err != nil {
			return fmt.Errorf("write /pub/f%d: %w", i, err)
		}
	}
	n.Do(func() { err = n.FS.Sync() })
	if err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	return nil
}

// hook is the httpd.Server.Do seam: every component entry the server
// makes passes here, and becomes a span while tracing.
func (f *fileserve) hook(fn func()) {
	n := f.e.srv
	t := f.e.tr.Load()
	if t == nil {
		n.Do(fn)
		return
	}
	t0 := t.now()
	n.Do(fn)
	t.record(0, spHTTPD, -1, 0, t0)
}

func (f *fileserve) run(p *phase, u until) {
	o := &openLoop{start: time.Now(), u: u}
	if u.count == 0 {
		o.interval = time.Second / fsRate
	}
	var wg sync.WaitGroup
	for _, c := range f.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o.pace(wallClock{}, p, func(k int64) (int, error) { return f.get(c, f.base+k) })
		}()
	}
	wg.Wait()
	// Tickets are taken in order, so the phase used 0 … ops+failed-1.
	used := int64(p.ops + p.failed)
	f.base += used
	if u.count == 0 {
		p.unsent = o.dueBy(u.deadline.Add(-1)) - used
	}
}

// get fetches request g's file on c and verifies the body.
func (f *fileserve) get(c *httpConn, g int64) (int, error) {
	file := f.fileOf(g)
	id, end := f.e.opSpan(spOp, g)
	defer end()
	status, body, err := c.get(fmt.Sprintf("/pub/f%d", file), id, g)
	if err != nil {
		c.close(id, g) // the framing is suspect: start afresh
		return 0, err
	}
	if status != 200 {
		return 0, fmt.Errorf("GET /pub/f%d: status %d", file, status)
	}
	if len(body) != fsBytes {
		return 0, fmt.Errorf("%w: GET /pub/f%d: %d bytes, want %d", errCorrupt, file, len(body), fsBytes)
	}
	crc := crc32.ChecksumIEEE(body)
	if crc != f.crcs[file] {
		return 0, fmt.Errorf("%w: GET /pub/f%d: crc %08x, want %08x", errCorrupt, file, crc, f.crcs[file])
	}
	f.e.sum.add(g, crc)
	return len(body), nil
}

func (f *fileserve) stop() error {
	for _, c := range f.conns {
		c.close(-1, 0)
	}
	srv := f.e.server()
	srv.close(f.lfd, -1, 0)
	f.e.bg.Wait()
	f.e.srv.Do(f.root.Release)
	return nil
}

// httpConn is one keep-alive client connection, opened on first use.
type httpConn struct {
	s       sock
	to      [4]byte
	fd      int
	open    bool
	pending []byte
	buf     [4096]byte
}

func (c *httpConn) close(parent, req int64) {
	if c.open {
		c.s.close(c.fd, parent, req)
		c.open, c.pending = false, nil
	}
}

// get sends one GET and reads the whole response.
func (c *httpConn) get(path string, parent, req int64) (status int, body []byte, err error) {
	if !c.open {
		fd, err := c.s.socket()
		if err != nil {
			return 0, nil, err
		}
		if err := c.s.connect(fd, c.to, fsPort, parent, req); err != nil {
			c.s.close(fd, parent, req)
			return 0, nil, err
		}
		c.fd, c.open, c.pending = fd, true, c.pending[:0]
	}
	msg := "GET " + path + " HTTP/1.1\r\nHost: kit\r\nConnection: keep-alive\r\n\r\n"
	if err := c.s.writeAll(c.fd, []byte(msg), parent, req); err != nil {
		return 0, nil, err
	}
	end := bytes.Index(c.pending, []byte("\r\n\r\n"))
	for end < 0 {
		if err := c.fill(parent, req); err != nil {
			return 0, nil, fmt.Errorf("response head: %w", err)
		}
		end = bytes.Index(c.pending, []byte("\r\n\r\n"))
	}
	status, clen, err := parseHead(string(c.pending[:end]))
	if err != nil {
		return 0, nil, err
	}
	c.pending = c.pending[end+4:]
	for len(c.pending) < clen {
		if err := c.fill(parent, req); err != nil {
			return 0, nil, fmt.Errorf("response body at %d of %d bytes: %w", len(c.pending), clen, err)
		}
	}
	body = c.pending[:clen]
	c.pending = c.pending[clen:]
	return status, body, nil
}

// fill appends one Read's worth to pending.
func (c *httpConn) fill(parent, req int64) error {
	n, err := c.s.read(c.fd, c.buf[:], parent, req)
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("connection closed")
	}
	c.pending = append(c.pending, c.buf[:n]...)
	return nil
}

// parseHead reads the status code and Content-Length of a response.
func parseHead(head string) (status, clen int, err error) {
	lines := strings.Split(head, "\r\n")
	proto, code, _ := strings.Cut(lines[0], " ")
	code, _, _ = strings.Cut(code, " ")
	if !strings.HasPrefix(proto, "HTTP/1.") {
		return 0, 0, fmt.Errorf("bad status line %q", lines[0])
	}
	if status, err = strconv.Atoi(code); err != nil {
		return 0, 0, fmt.Errorf("bad status line %q", lines[0])
	}
	clen = -1
	for _, l := range lines[1:] {
		k, v, _ := strings.Cut(l, ":")
		if strings.EqualFold(strings.TrimSpace(k), "Content-Length") {
			if clen, err = strconv.Atoi(strings.TrimSpace(v)); err != nil {
				return 0, 0, fmt.Errorf("bad Content-Length %q", v)
			}
		}
	}
	if clen < 0 {
		return 0, 0, fmt.Errorf("response without Content-Length")
	}
	return status, clen, nil
}
