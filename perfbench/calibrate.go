package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
	"unsafe"
)

// refCalibration is one calibration slice's CPU time on the reference
// host (a shared 2-core x86 VM, Go 1.24, measured when the host was
// quiet). setup_s and cpu_us_per_op are reported in CPU time of that
// host: the CPU time measured × hostScale.
const refCalibration = 31400 * time.Microsecond

const (
	calibEntries = 1 << 15   // 128 KiB of chase table, within a core's L2
	calibSteps   = 8_000_000 // table steps per slice
	calibSlices  = 5         // slices per calibration point
)

// calibTable is a single random cycle over calibEntries slots, built once
// so that a slice neither allocates nor faults in memory.
var calibTable []uint32

// calibrate measures how fast the host's cores run right now. CPU speed
// on a shared host drifts with co-tenant load (a busy sibling thread,
// frequency, stolen time charged to the guest) by up to 2× over minutes;
// a set-up and the calibrations around it slow down together, so their
// ratio does not. Each slice is a fixed job from the standard library
// only, run on one locked thread and timed by that thread's CPU clock: a
// dependent walk of a random cycle through a table that fits in a core's
// L2, each step mixed with a few multiplies. A table larger than the
// caches made slices vary 2× within a run while set-up CPU held steady,
// as its speed follows the TLB and the shared L3. The walk allocates
// nothing, so no garbage collection runs inside it. calibrate first
// collects the heap and returns it to the OS, so that a released
// cluster's memory is gone before the next set-up. It returns the CPU
// time of each slice.
func calibrate() []time.Duration {
	debug.FreeOSMemory()
	if calibTable == nil {
		calibTable = make([]uint32, calibEntries)
		for i := range calibTable {
			calibTable[i] = uint32(i)
		}
		// Sattolo's algorithm: a uniformly random single cycle.
		rng := rand.New(rand.NewSource(1))
		for i := len(calibTable) - 1; i > 0; i-- {
			j := rng.Intn(i)
			calibTable[i], calibTable[j] = calibTable[j], calibTable[i]
		}
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	out := make([]time.Duration, calibSlices)
	var x uint64 = 1
	for s := range out {
		c0 := threadCPU()
		p := uint32(s)
		for i := 0; i < calibSteps; i++ {
			p = calibTable[p]
			x = (x ^ uint64(p)) * 0x9e3779b97f4a7c15
			x ^= x >> 29
			x *= 0xbf58476d1ce4e5b9
		}
		out[s] = threadCPU() - c0
	}
	if x == 0 { // practically never: keeps the walk from being optimised away
		out[0]++
	}
	return out
}

// hostScale converts CPU time measured in this process to CPU time of the
// reference host: refCalibration ÷ the median of the run's slices.
func hostScale(slices []time.Duration) float64 {
	return refCalibration.Seconds() / median(seconds(slices))
}

// threadCPU is the calling thread's CPU time, read from the kernel's
// per-thread run-time clock (getrusage's per-thread figure is sampled
// at the scheduler tick, too coarse for a slice).
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", e))
	}
	return time.Duration(ts.Nano())
}
