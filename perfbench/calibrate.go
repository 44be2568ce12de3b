package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration. The benchmark runs on shared hosts whose speed
// drifts by tens of percent over minutes as neighbours come and go, which
// would swamp a regression bound. So a short fixed burst of plain Go
// work, independent of the simulator, runs before every set-up and every
// round, and each reported time is scaled by refBurstMS / (median burst
// time of the run): a time on a host running the burst at refBurstMS.
// The burst has two halves of about equal length. The first mixes loads
// and stores at random over a 1 MiB buffer with small heap allocations;
// the buffer fits a core's private cache, as a cell's working set mostly
// does. The second is a chain of dependent ALU steps, which tracks the
// core's clock and a busy sibling thread. In trials an 8 MiB buffer,
// which lives in the shared cache, sped up and slowed down with the
// neighbours far more than the simulator did, and over-corrected; the
// memory half alone left the spread of the time metrics over twelve runs
// at up to 0.14 of their median, and adding the ALU half cut that to 0.09.
// This is the method of internal/perf (see PERFORMANCE.md), with medians
// where internal/perf takes the best of N. The text report prints the
// raw figures beside the scaled ones.

// refBurstMS is the pinned reference burst time. Its value only fixes
// the reference host; changing it rescales every reported time, so it
// must stay as it is while results are compared.
const refBurstMS = 10.8

// burstSteps and burstALUSteps are the lengths of the two halves, about
// 5.6 and 5.2 ms on a 2.1 GHz Xeon vCPU.
const (
	burstSteps    = 1 << 20
	burstALUSteps = 1 << 21
)

const burstWords = 1 << 17 // 1 MiB

var (
	burstBuf  []uint64 // mapped outside the Go heap, so heap metrics do not see it
	burstKeep []byte   // keeps the burst's allocations on the heap
	burstSink uint64   // keeps the burst from being optimised away
)

// initBurst maps and fills the burst buffer; it lives for the whole
// process.
func initBurst() error {
	if burstBuf != nil {
		return nil
	}
	mem, err := syscall.Mmap(-1, 0, burstWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return fmt.Errorf("calibration buffer: %w", err)
	}
	burstBuf = unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), burstWords)
	for i := range burstBuf {
		burstBuf[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	return nil
}

// burst runs the calibration burst and returns its host time in ms.
func burst() float64 {
	start := time.Now()
	x, s := uint64(0x9e3779b97f4a7c15), uint64(0)
	for i := 0; i < burstSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (burstWords - 1)
		s += burstBuf[j]
		burstBuf[j^1] = s
		if i&63 == 0 {
			burstKeep = make([]byte, 64)
			burstKeep[0] = byte(x)
		}
	}
	for i := 0; i < burstALUSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s += x * 3
	}
	burstSink += x + s
	return float64(time.Since(start)) / float64(time.Millisecond)
}
