package main

// The calibration kernel: the yardstick the adjusted end-to-end times
// are measured against. See "Adjusted times" in README.md.

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// refNominal is a fixed round figure of the order of the calibration
// kernel's time: 0.035-0.039 s on the machine the baseline in README.md
// was measured on (2-core Xeon VM, 2.1 GHz). An adjusted time is a raw
// time scaled by refNominal over the run's own kernel time, both
// trimmed means: the time the operation would have taken on a machine
// whose kernel time is refNominal.
const refNominal = 0.03

const (
	calibWords = 1 << 20 // 8 MiB per lane: larger than L2, so the walks also measure memory
	calibKeys  = 200000
	calibLanes = parallelism
)

// calibration is a fixed amount of CPU and memory work that belongs to
// the benchmark, not the program, so no change to the program changes
// it. Its timings track how fast the shared host lets this run go.
//
// It runs one lane per core the operations use (parallelism), each lane
// on its own memory, and a kernel's time is the wall time until every
// lane is done: a host that slows one core slows a two-core operation,
// and a one-lane kernel would see that only when it landed on that
// core. Its memory is mapped outside the Go heap and released after
// every kernel, so it neither raises the collector's heap goal for the
// program's operations nor stays resident between kernels.
type calibration struct {
	mem     []byte
	lanes   [calibLanes]lane
	samples []float64 // seconds per kernel
}

type lane struct {
	words []uint64
	keys  []int
	acc   uint64
}

const laneBytes = 8 * (calibWords + calibKeys)

func newCalibration() (*calibration, error) {
	mem, err := syscall.Mmap(-1, 0, calibLanes*laneBytes,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map calibration memory: %w", err)
	}
	c := &calibration{mem: mem}
	for i := range c.lanes {
		m := mem[i*laneBytes:]
		c.lanes[i] = lane{
			words: unsafe.Slice((*uint64)(unsafe.Pointer(&m[0])), calibWords),
			keys:  unsafe.Slice((*int)(unsafe.Pointer(&m[8*calibWords])), calibKeys),
		}
	}
	return c, nil
}

// measure collects the garbage of the operations before it, so the
// collector does not run beside the kernel, and fills every lane's
// inputs, which faults the pages in. Then it times one kernel. Every
// kernel does the same work on the same inputs.
func (c *calibration) measure() {
	runtime.GC()
	for i := range c.lanes {
		c.lanes[i].fill()
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range c.lanes {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			l.run()
		}(&c.lanes[i])
	}
	wg.Wait()
	c.samples = append(c.samples, time.Since(t0).Seconds())
	for i := range c.lanes {
		calibrationSink += c.lanes[i].acc
	}
	// Dropping the pages of a private anonymous mapping of our own
	// cannot fail.
	_ = syscall.Madvise(c.mem, syscall.MADV_DONTNEED)
}

func (l *lane) fill() {
	for i := range l.words {
		l.words[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	x := uint64(12345)
	for i := range l.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		l.keys[i] = int(x >> 1)
	}
}

// run is one lane's work: four dependent popcount walks over the words
// and a sort of the pseudo-random keys.
func (l *lane) run() {
	var acc uint64
	for pass := 0; pass < 4; pass++ {
		for i, w := range l.words {
			acc += uint64(bits.OnesCount64(w ^ acc))
			l.words[i] = w ^ acc<<7
		}
	}
	slices.Sort(l.keys)
	l.acc = acc
}

var calibrationSink uint64 // keeps the walks from being optimised away

// close unmaps the kernel's memory. The run is over by then, so a
// failure changes nothing the benchmark reports.
func (c *calibration) close() { _ = syscall.Munmap(c.mem) }
