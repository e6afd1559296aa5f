// Package disk models the mechanical disks behind the Pegasus storage
// service (§5): seek time, rotational latency and a finite media
// transfer rate, with an in-memory backing store for the data itself.
//
// The numbers behind the paper's claims fall straight out of the model:
// moving the head costs ~milliseconds, so writing whole megabyte
// segments amortises the seek to under ten per cent and sustains more
// than five megabytes per second per disk.
package disk

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Params describes the disk mechanics. The defaults approximate a good
// 1994 drive (5400 rpm, ~6 MB/s media rate).
type Params struct {
	// SeekMin is the track-to-track seek; SeekMax the full-stroke seek.
	// A seek across d bytes of a Size-byte disk costs
	// SeekMin + d/Size * (SeekMax - SeekMin).
	SeekMin, SeekMax sim.Duration
	// RotHalf is the average rotational latency (half a revolution).
	RotHalf sim.Duration
	// Rate is the media transfer rate in bytes per second.
	Rate int64
}

// DefaultParams returns 1994-era mechanics.
func DefaultParams() Params {
	return Params{
		SeekMin: 2 * sim.Millisecond,
		SeekMax: 16 * sim.Millisecond,
		RotHalf: 5600 * sim.Microsecond, // 5400 rpm ≈ 11.1 ms/rev
		Rate:    6_000_000,
	}
}

// AvgPosition is the expected cost of repositioning the head for a
// random access: the mean seek (half the stroke on average) plus half a
// revolution of rotational latency. Admission control above the disk
// (the continuous-media round scheduler) charges this per repositioning
// when budgeting a round; the real cost under SCAN ordering is lower,
// which is exactly the safety margin a guarantee needs.
func (p Params) AvgPosition() sim.Duration {
	return p.SeekMin + (p.SeekMax-p.SeekMin)/2 + p.RotHalf
}

// TransferTime is the media transfer time for n bytes.
func (p Params) TransferTime(n int64) sim.Duration {
	return sim.Duration(n * int64(sim.Second) / p.Rate)
}

// ErrFailed reports an operation against a failed disk.
var ErrFailed = errors.New("disk: failed")

// ErrBounds reports an out-of-range access.
var ErrBounds = errors.New("disk: access out of bounds")

// Stats accumulates per-disk accounting.
type Stats struct {
	Reads, Writes         int64
	BytesRead, BytesWrite int64
	SeekTime              sim.Duration
	RotTime               sim.Duration
	TransferTime          sim.Duration
	Seeks                 int64 // repositioning operations (non-sequential)
}

// BusyTime is total time the arm/media were occupied.
func (s *Stats) BusyTime() sim.Duration { return s.SeekTime + s.RotTime + s.TransferTime }

// request is one queued operation.
type request struct {
	write bool
	off   int64
	data  []byte // write payload, or the caller's read destination
	done  func(error)
}

// Disk is a single mechanical disk running on the simulator. Operations
// are queued FIFO and served one at a time.
type Disk struct {
	sim    *sim.Sim
	params Params
	size   int64
	data   []byte

	queue   []request
	busy    bool
	headPos int64 // byte position after the last transfer

	failed bool

	Stats Stats
}

// New builds a disk of the given byte size.
func New(s *sim.Sim, p Params, size int64) *Disk {
	if size <= 0 {
		panic("disk: size must be positive")
	}
	if p.Rate <= 0 {
		panic("disk: rate must be positive")
	}
	return &Disk{sim: s, params: p, size: size, data: make([]byte, size)}
}

// Size reports the disk capacity in bytes.
func (d *Disk) Size() int64 { return d.size }

// Failed reports whether the disk has failed.
func (d *Disk) Failed() bool { return d.failed }

// Fail makes the disk refuse all subsequent operations (queued ones
// fail too) — the single-component failure of the paper's RAID story.
func (d *Disk) Fail() {
	d.failed = true
	for _, r := range d.queue {
		r := r
		d.sim.At(d.sim.Now(), func() { r.done(ErrFailed) })
	}
	d.queue = nil
}

// Repair replaces the disk with a blank one (contents lost, as with a
// physical swap); the array layer rebuilds it from parity.
func (d *Disk) Repair() {
	d.failed = false
	d.data = make([]byte, d.size)
}

// Read queues a read of n bytes at off; done receives the data in a
// fresh buffer.
func (d *Disk) Read(off int64, n int, done func([]byte, error)) {
	buf := make([]byte, n)
	d.ReadInto(off, buf, func(err error) {
		if err != nil {
			done(nil, err)
			return
		}
		done(buf, nil)
	})
}

// ReadInto queues a read of len(dst) bytes at off straight into dst —
// the platter-to-buffer DMA, the only copy a stored byte makes on its
// way into a caller's buffer. The caller must not touch dst until done
// fires; on error dst's contents are unspecified.
func (d *Disk) ReadInto(off int64, dst []byte, done func(error)) {
	d.submit(request{off: off, data: dst, done: done})
}

// Write queues a write; done fires once the data is on the platter.
func (d *Disk) Write(off int64, p []byte, done func(error)) {
	d.submit(request{write: true, off: off, data: append([]byte(nil), p...), done: done})
}

func (d *Disk) submit(r request) {
	if d.failed {
		d.sim.At(d.sim.Now(), func() { r.done(ErrFailed) })
		return
	}
	if r.off < 0 || r.off+int64(len(r.data)) > d.size {
		d.sim.At(d.sim.Now(), func() { r.done(ErrBounds) })
		return
	}
	d.queue = append(d.queue, r)
	if !d.busy {
		d.next()
	}
}

func (d *Disk) next() {
	if len(d.queue) == 0 {
		d.busy = false
		return
	}
	d.busy = true
	r := d.queue[0]
	d.queue = d.queue[1:]

	var cost sim.Duration
	if r.off != d.headPos {
		dist := r.off - d.headPos
		if dist < 0 {
			dist = -dist
		}
		seek := d.params.SeekMin +
			sim.Duration(float64(d.params.SeekMax-d.params.SeekMin)*float64(dist)/float64(d.size))
		cost += seek + d.params.RotHalf
		d.Stats.SeekTime += seek
		d.Stats.RotTime += d.params.RotHalf
		d.Stats.Seeks++
	}
	n := int64(len(r.data))
	xfer := sim.Duration(n * int64(sim.Second) / d.params.Rate)
	cost += xfer
	d.Stats.TransferTime += xfer

	d.sim.After(cost, func() {
		if d.failed {
			r.done(ErrFailed)
			d.next()
			return
		}
		d.headPos = r.off + n
		if r.write {
			copy(d.data[r.off:], r.data)
			d.Stats.Writes++
			d.Stats.BytesWrite += n
		} else {
			copy(r.data, d.data[r.off:])
			d.Stats.Reads++
			d.Stats.BytesRead += n
		}
		r.done(nil)
		d.next()
	})
}

// String summarises the disk for reports.
func (d *Disk) String() string {
	return fmt.Sprintf("disk{%d MB, busy=%v}", d.size>>20, d.busy)
}
