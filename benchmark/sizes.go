package main

import (
	"math/rand"
	"time"

	"hsas/internal/world"
)

// sizes fixes the scale of every workload. fullSizes is the benchmark;
// tinySizes is the self-test's small-scale copy of the same code paths.
type sizes struct {
	// fig8-cnn
	fig8Track   func() *world.Track
	fig8W       int
	fig8H       int
	trainN      [3]int // dataset size per classifier (road, lane, scene)
	trainEpochs int    // 0 keeps each classifier's default epochs
	warmupSimS  float64

	// warm-analytics
	warmSits []int
	warmW    int
	warmH    int
	warmReps int

	// traced runs
	replayEvery int           // replay every n-th recorded control cycle
	minBatch    time.Duration // shortest timed loop for sub-microsecond calls
}

// fullSizes are the benchmark's workloads as BENCHMARK.json names them.
// The road classifier gets twice the data of the others because below
// ~240 samples it misclassifies turns often enough to crash the case-4
// lap.
func fullSizes() sizes {
	return sizes{
		fig8Track:   world.NineSectorTrack,
		fig8W:       192,
		fig8H:       96,
		trainN:      [3]int{240, 120, 120},
		warmupSimS:  1,
		warmSits:    seq(1, len(world.PaperSituations)),
		warmW:       64,
		warmH:       32,
		warmReps:    2,
		replayEvery: 3,
		minBatch:    50 * time.Millisecond,
	}
}

// tinySizes shrinks every workload to one situation and a tiny camera.
func tinySizes() sizes {
	return sizes{
		fig8Track:   func() *world.Track { return world.SituationTrack(world.PaperSituations[0]) },
		fig8W:       32,
		fig8H:       16,
		trainN:      [3]int{12, 12, 12},
		trainEpochs: 1,
		warmupSimS:  0.2,
		warmSits:    []int{1},
		warmW:       32,
		warmH:       16,
		warmReps:    1,
		replayEvery: 1,
		minBatch:    time.Millisecond,
	}
}

func seq(lo, hi int) []int {
	var out []int
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}

// permuted returns the situation indices in a seed-determined order.
func permuted(idx []int, seed int64) []int {
	out := make([]int, len(idx))
	for i, j := range rand.New(rand.NewSource(seed)).Perm(len(idx)) {
		out[i] = idx[j]
	}
	return out
}
