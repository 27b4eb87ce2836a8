//go:build linux

package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// rotateEvery is how long a timed goroutine stays on one CPU before its
// cpuRotor moves it on.
const rotateEvery = 250 * time.Millisecond

// cpuMask is a Linux CPU affinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) has(c int) bool { return m[c/64]&(1<<(c%64)) != 0 }

// threadAffinity sets (set) or reads (!set) the calling thread's mask.
func threadAffinity(m *cpuMask, set bool) error {
	call := uintptr(syscall.SYS_SCHED_GETAFFINITY)
	if set {
		call = syscall.SYS_SCHED_SETAFFINITY
	}
	if _, _, errno := syscall.RawSyscall(call, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); errno != 0 {
		return errno
	}
	return nil
}

// cpuRotor moves a timed goroutine's thread round the CPUs the process
// may use. On a shared host each vCPU's speed changes from second to
// second, independently of the other's; a thread left on one vCPU for a
// whole timed phase measures that vCPU's luck, while one that visits
// every vCPU in turn measures their average. In interleaved runs on a
// 2-vCPU Xeon VM this cut the fig8-cnn spreads from 9–13% to 5–10%.
type cpuRotor struct {
	all  cpuMask
	cpus []int
	next int
	last time.Time
}

// startRotor locks the calling goroutine to its thread and records the
// CPUs it may run on. With fewer than two, tick does nothing.
func startRotor() *cpuRotor {
	runtime.LockOSThread()
	r := &cpuRotor{last: time.Now()}
	if threadAffinity(&r.all, false) != nil {
		return r
	}
	for c := 0; c < len(r.all)*64; c++ {
		if r.all.has(c) {
			r.cpus = append(r.cpus, c)
		}
	}
	return r
}

// tick moves the thread to the next CPU once rotateEvery has passed
// since the last move.
func (r *cpuRotor) tick(now time.Time) {
	if len(r.cpus) < 2 || now.Sub(r.last) < rotateEvery {
		return
	}
	r.last = now
	c := r.cpus[r.next%len(r.cpus)]
	r.next++
	var m cpuMask
	m[c/64] |= 1 << (c % 64)
	_ = threadAffinity(&m, true)
}

// stop restores the thread's mask and unlocks it.
func (r *cpuRotor) stop() {
	if len(r.cpus) > 0 {
		_ = threadAffinity(&r.all, true)
	}
	runtime.UnlockOSThread()
}
