//go:build !linux

package main

import "time"

// cpuRotor is a no-op where thread affinity is not set through Linux's
// sched_setaffinity; see affinity_linux.go.
type cpuRotor struct{}

func startRotor() *cpuRotor { return &cpuRotor{} }

func (*cpuRotor) tick(time.Time) {}

func (*cpuRotor) stop() {}
