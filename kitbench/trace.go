package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names.  The benchmark records spans only around its own calls
// into the kit (the socket layer and the httpd component hook); spans
// inside the kit are a separate change.
const (
	spOp       uint8 = iota // one workload operation, generator side
	spSrvReq                // one server-side request or connection
	spWriteCli              // libc Write on the client node
	spWriteSrv              // libc Write on the server node
	spReadCli
	spReadSrv
	spConnect
	spAccept
	spCloseCli
	spCloseSrv
	spHTTPD // one component entry through httpd.Server.Do
	numSpans
)

var spanNames = [numSpans]string{
	"op", "server.req",
	"libc.write.client", "libc.write.server",
	"libc.read.client", "libc.read.server",
	"libc.connect", "libc.accept",
	"libc.close.client", "libc.close.server",
	"httpd.entry",
}

// span is one timed interval.  Spans of one request share req; parent
// is the id of the span that caused this one, or -1 for a root.
type span struct {
	id, parent, req int64
	start, end      int64 // ns since epoch
	name            uint8
}

// tracer keeps every span of the traced phase in memory; write puts
// them out when the run ends.
type tracer struct {
	ids atomic.Int64

	mu    sync.Mutex
	spans []span
}

// epoch is the process's time origin: span times and the stream
// workload's send stamps are nanoseconds since it.
var epoch = time.Now()

func sinceEpoch() int64 { return int64(time.Since(epoch)) }

func newTracer() *tracer { return &tracer{spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 { return sinceEpoch() }

// newID reserves a span id (a root span is recorded when it ends, after
// its children, which name it as parent).
func (t *tracer) newID() int64 { return t.ids.Add(1) }

// record appends a span that started at start and ends now.
func (t *tracer) record(id int64, name uint8, parent, req, start int64) {
	end := t.now()
	if id == 0 {
		id = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{id: id, parent: parent, req: req, start: start, end: end, name: name})
	t.mu.Unlock()
}

// durations returns the sorted durations of every span with name.
func (t *tracer) durations(name uint8) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d []time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d = append(d, time.Duration(s.end-s.start))
		}
	}
	return sortDurations(d)
}

// write puts every span out as gzip-compressed tab-separated lines:
// id, parent, req, name, start_ns, end_ns, ordered by start.
func (t *tracer) write(path string) (err error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintf(w, "# spans of one traced run; times in ns since %s\nid\tparent\treq\tname\tstart\tend\n",
		epoch.UTC().Format(time.RFC3339Nano))
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.req, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return zw.Close()
}
