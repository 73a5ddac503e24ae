package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"oskit/internal/evalrig"
)

// The paper's stock configurations that do not complete on an SMP
// host.  Each preflight runs one short ttcp and one short rtcp exchange
// (the stream and rpc drivers' warm-ups) in a child process with a
// deadline, and reports ok, crash or hang with the first panic or
// stuck frame.  The line is a status report, not a gate.
var preflights = []struct {
	name string
	opts evalrig.Options
}{
	{"stock-1cpu", evalrig.Options{}},
	{"nofastpath-2cpu", evalrig.Options{CPUs: 2}},
}

const preflightDeadline = 3 * time.Second

// preflightChild is the child side: run the exchanges and report.
func preflightChild(name string) int {
	for _, p := range preflights {
		if p.name != name {
			continue
		}
		c, err := evalrig.NewCluster(evalrig.OSKit, 2, time.Millisecond, p.opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "boot:", err)
			return 1
		}
		e := newEnv(c, 1)
		for _, d := range []driver{&stream{e: e}, &rpc{e: e}} {
			if err := d.start(); err != nil {
				fmt.Fprintln(os.Stderr, "exchange:", err)
				return 1
			}
			if err := d.stop(); err != nil {
				fmt.Fprintln(os.Stderr, "teardown:", err)
				return 1
			}
		}
		c.Halt()
		return 0
	}
	fmt.Fprintln(os.Stderr, "unknown preflight", name)
	return 2
}

// runPreflights runs every preflight concurrently and returns one
// status line each.
func runPreflights() []string {
	self, err := os.Executable()
	if err != nil {
		return []string{"preflight: cannot find own executable: " + err.Error()}
	}
	lines := make([]string, len(preflights))
	var wg sync.WaitGroup
	for i, p := range preflights {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lines[i] = fmt.Sprintf("preflight %s: %s", p.name, preflightOne(self, p.name))
		}()
	}
	wg.Wait()
	return lines
}

// preflightOne runs one child to completion or its deadline.  A child
// past the deadline gets SIGQUIT, which makes the Go runtime dump every
// goroutine before exiting, and is killed if it outlives that too.
func preflightOne(self, name string) string {
	cmd := exec.Command(self, "--preflight", name)
	var out bytes.Buffer
	cmd.Stderr = &out
	cmd.Env = append(os.Environ(), "GOTRACEBACK=all")
	if err := cmd.Start(); err != nil {
		return "error: " + err.Error()
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			return "ok"
		}
		return "crash: " + diagnose(out.String(), false)
	case <-time.After(preflightDeadline):
	}
	_ = cmd.Process.Signal(syscall.SIGQUIT) // it may have just exited
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		_ = cmd.Process.Kill()
		<-done
	}
	return fmt.Sprintf("hang (no exit in %v): %s", preflightDeadline, diagnose(out.String(), true))
}

// blockedStates are goroutine states that mark a lock wait, most
// telling first.
var blockedStates = []string{"sync.Mutex.Lock", "semacquire", "sync.RWMutex", "sync.Cond.Wait"}

// diagnose extracts the first panic message and the frame that names
// it from a Go crash or SIGQUIT dump: for a crash, the first kit frame
// of the panicking goroutine; for a hang, the first kit frame of the
// first goroutine blocked on a lock.
func diagnose(dump string, hung bool) string {
	blocks := strings.Split(dump, "\n\n")
	msg := ""
	for _, l := range strings.Split(dump, "\n") {
		if strings.HasPrefix(l, "panic: ") || strings.HasPrefix(l, "fatal error: ") {
			msg = l
			break
		}
	}
	if !hung {
		for _, b := range blocks {
			if strings.HasPrefix(b, "goroutine ") {
				if f := kitFrame(b); f != "" {
					return msg + " at " + f
				}
			}
		}
		if msg == "" {
			return "no panic message"
		}
		return msg
	}
	for _, state := range blockedStates {
		for _, b := range blocks {
			head, _, _ := strings.Cut(b, "\n")
			if strings.HasPrefix(head, "goroutine ") && strings.Contains(head, state) {
				if f := kitFrame(b); f != "" {
					return "blocked [" + state + "] in " + f
				}
			}
		}
	}
	return "no goroutine blocked on a lock"
}

// kitFrame returns the first frame of the kit in one goroutine's stack.
func kitFrame(block string) string {
	for _, l := range strings.Split(block, "\n") {
		if strings.HasPrefix(l, "oskit/internal/") {
			if i := strings.LastIndexByte(l, '('); i > 0 {
				return l[:i]
			}
			return l
		}
	}
	return ""
}
