// Package bsddev holds the kit's FreeBSD-derived character device
// drivers (paper §3.6: "eight character device drivers imported from
// FreeBSD … supporting the standard PC console and serial port"), with
// their glue.  The donor half is sio-style: an interrupt handler drains
// the UART into a tty ring buffer and wakes sleepers; reads tsleep on
// the ring.  The glue probes the machine bus and exports each port as an
// fdev device answering for com.Stream — interchangeable with any other
// character device, which is how the same console code serves both
// donor families ("the FreeBSD drivers work alongside the Linux drivers
// without a problem", §3.6).
package bsddev

import (
	"fmt"

	"oskit/internal/com"
	"oskit/internal/dev"
	bsdglue "oskit/internal/freebsd/glue"
	"oskit/internal/hw"
)

// SioChip is the register-level UART surface the donor driver drives
// (inb/outb on a 16550, morally).
type SioChip interface {
	// TryRead drains buffered receive bytes without blocking.
	TryRead(p []byte) int
	// Write transmits bytes.
	Write(p []byte) (int, error)
}

const ttyRingSize = 1024

// sio is the donor driver state for one port.
type sio struct {
	g    *bsdglue.Glue
	chip SioChip
	irq  int

	ring  [ttyRingSize]byte
	rHead int // write cursor
	rTail int // read cursor
	event uint32

	overruns uint64
}

// sioAttach installs the interrupt handler.
func sioAttach(g *bsdglue.Glue, chip SioChip, irq int, event uint32) *sio {
	t := &sio{g: g, chip: chip, irq: irq, event: event}
	g.Env().Machine.Intr.SetHandler(irq, func(int) { t.rint() })
	g.Env().Machine.Intr.SetMask(irq, false)
	return t
}

// rint is the receive interrupt: drain the chip into the ring.
func (t *sio) rint() {
	var buf [64]byte
	for {
		n := t.chip.TryRead(buf[:])
		if n == 0 {
			break
		}
		for _, b := range buf[:n] {
			next := (t.rHead + 1) % ttyRingSize
			if next == t.rTail {
				t.overruns++ // ring full: drop, like a real tty
				continue
			}
			t.ring[t.rHead] = b
			t.rHead = next
		}
	}
	t.g.Wakeup(t.event)
}

// read blocks (tsleep) until bytes are available.
func (t *sio) read(p []byte) int {
	spl := t.g.Splhigh()
	defer t.g.Splx(spl)
	for t.rTail == t.rHead {
		t.g.Tsleep(t.event, "sioin")
	}
	n := 0
	for n < len(p) && t.rTail != t.rHead {
		p[n] = t.ring[t.rTail]
		t.rTail = (t.rTail + 1) % ttyRingSize
		n++
	}
	return n
}

func (t *sio) write(p []byte) (int, error) { return t.chip.Write(p) }

// InitSio registers the FreeBSD serial driver set with the framework.
func InitSio(fw *dev.Framework) {
	d := &sioDriver{}
	d.InitDriver(com.DeviceInfo{
		Name:        "sio",
		Description: "FreeBSD-style serial driver (encapsulated)",
		Vendor:      "freebsd",
		Driver:      "sio",
	})
	fw.RegisterDriver(d)
}

type sioDriver struct {
	dev.DriverBase
}

// Probe implements dev.Prober: claim every serial port on the bus.
func (d *sioDriver) Probe(fw *dev.Framework) int {
	g := bsdglue.New(fw.Env())
	n := 0
	for _, bd := range fw.Env().Machine.Bus.Devices() {
		port, ok := bd.HW.(*hw.SerialPort)
		if !ok {
			continue
		}
		t := sioAttach(g, port, bd.IRQ, 0x60000000+uint32(n)*8)
		node := &sioDev{t: t, info: com.DeviceInfo{
			Name:        fmt.Sprintf("sio%d", n),
			Description: "serial port",
			Vendor:      "freebsd",
			Driver:      "sio",
		}}
		node.Init()
		fw.RegisterDevice(node)
		n++
	}
	return n
}

// sioDev is the COM node for one port.
type sioDev struct {
	com.RefCount
	t    *sio
	info com.DeviceInfo
}

// QueryInterface implements com.IUnknown.
func (s *sioDev) QueryInterface(iid com.GUID) (com.IUnknown, error) {
	switch iid {
	case com.UnknownIID, com.DeviceIID, com.StreamIID:
		s.AddRef()
		return s, nil
	}
	return nil, com.ErrNoInterface
}

// GetInfo implements com.Device.
func (s *sioDev) GetInfo() com.DeviceInfo { return s.info }

// Read implements com.Stream: blocking tty read through the donor path.
func (s *sioDev) Read(buf []byte) (uint, error) {
	_, restore := s.t.g.Enter("sioread")
	defer restore()
	return uint(s.t.read(buf)), nil
}

// Write implements com.Stream.
func (s *sioDev) Write(buf []byte) (uint, error) {
	_, restore := s.t.g.Enter("siowrite")
	defer restore()
	n, err := s.t.write(buf)
	if err != nil {
		return uint(n), com.ErrIO
	}
	return uint(n), nil
}

// Overruns exposes the donor statistic (open implementation, §4.6); it
// is read under interrupt exclusion because the handler updates it.
func (s *sioDev) Overruns() uint64 {
	spl := s.t.g.Splhigh()
	defer s.t.g.Splx(spl)
	return s.t.overruns
}

var _ com.Stream = (*sioDev)(nil)
