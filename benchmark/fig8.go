package main

import (
	"fmt"
	"math"
	"time"

	"hsas/internal/camera"
	"hsas/internal/classifier"
	"hsas/internal/knobs"
	"hsas/internal/obs"
	"hsas/internal/sim"
)

var kinds = [3]classifier.Kind{classifier.Road, classifier.Lane, classifier.Scene}

// queryS is the simulated driving one fig8-cnn query covers. A single
// control cycle makes a poor query: its host time clusters at a few
// values (about 6, 10 and 18 ms on a 2-vCPU Xeon), so a percentile that
// sits between two clusters jumps from one to the other when the host
// slows slightly. Half a second spans 11 to 20 cycles, and its host
// time varies smoothly along the lap.
const queryS = 0.5

// fig8CNN is the paper's headline experiment: the Fig. 8 nine-sector
// lap in case 4 (all three classifiers on every frame) with trained
// fp32 CNN sensors. Render, ISP, detect and CNN inference carry nearly
// all of its host time, so every pixel-kernel and GEMM change shows
// here. --seed is the camera-noise seed of the lap; the classifiers are
// trained from their fixed dataset seeds.
//
// Set-up trains the three classifiers at reduced dataset sizes and
// drives the first second of the lap as a warm-up. The timed phase runs
// whole laps until --seconds have passed; ops are control cycles and a
// query is queryS of simulated driving.
func fig8CNN(e *env) error {
	sz := e.size
	track := sz.fig8Track()
	cam := camera.Scaled(sz.fig8W, sz.fig8H)
	var cls []*classifier.Classifier
	lapConfig := func() sim.Config {
		return sim.Config{
			Track: track, Camera: cam, Case: knobs.Case4, Seed: e.seed, KernelWorkers: serialKernels,
			Sens: sim.Sensors{Road: sim.CNN{C: cls[0]}, Lane: sim.CNN{C: cls[1]}, Scene: sim.CNN{C: cls[2]}},
		}
	}

	// One set-up per run: training costs ~16 s, so repeating it would
	// leave no time for the lap.
	err := e.setup(1, func() error {
		cls = nil
		valAcc := map[string]float64{}
		for i, k := range kinds {
			d := classifier.DatasetConfigFor(k)
			d.N = sz.trainN[i]
			tc := classifier.TrainConfigFor(k)
			tc.Workers = e.procs
			if sz.trainEpochs > 0 {
				tc.Epochs = sz.trainEpochs
			}
			var o *obs.Observer
			if e.trace {
				o = &obs.Observer{Trace: e.spans}
			}
			c, rep, err := classifier.TrainObserved(k, d, tc, o)
			if err != nil {
				return fmt.Errorf("training the %v classifier: %w", k, err)
			}
			cls = append(cls, c)
			valAcc[k.String()] = rep.ValAccuracy
			e.layer["classifier.val_acc."+k.String()] = rep.ValAccuracy
		}
		e.info["classifier_val_acc"] = valAcc
		warm := lapConfig()
		warm.MaxTimeS = sz.warmupSimS
		_, err := sim.Run(warm)
		return err
	})
	if err != nil {
		return err
	}

	// lap drives one lap, moving round the CPUs as it goes, and returns
	// its result, wall time and the host latency of every complete query
	// window (from the trace callback of the window's first control cycle
	// to that of the next window's first), appending the cycles to rec
	// when set. The lap is deterministic, so a lap after the first must
	// repeat its MAE.
	mae := math.NaN()
	lap := func(cfg sim.Config, rec *[]sim.TracePoint) (*sim.Result, time.Duration, []float64, bool) {
		var lat []float64
		cycles, win := 0, -1
		rot := startRotor()
		defer rot.stop()
		start := time.Now()
		winStart := start
		cfg.Trace = func(p sim.TracePoint) {
			now := time.Now()
			rot.tick(now)
			cycles++
			if w := int(p.TimeS / queryS); w != win {
				if win >= 0 {
					lat = append(lat, ms(now.Sub(winStart)))
				}
				win, winStart = w, now
			}
			if rec != nil {
				*rec = append(*rec, p)
			}
		}
		res, err := sim.Run(cfg)
		wall := time.Since(start)
		ok := e.op(max(1, cycles), err == nil && res.Frames == cycles && res.Frames > 0 && len(lat) > 0 &&
			!math.IsNaN(res.MAE) && !math.IsInf(res.MAE, 0) && (math.IsNaN(mae) || res.MAE == mae),
			"lap: err=%v result=%+v cycles=%d queries=%d first MAE=%v", err, res, cycles, len(lat), mae)
		if ok {
			mae = res.MAE
		}
		return res, wall, lat, ok
	}

	// Timed phase: whole laps until --seconds have passed.
	ph := startPhase()
	var cycles int
	var wall time.Duration
	var lats []float64
	for laps := 0; laps == 0 || time.Since(ph.start) < e.seconds; laps++ {
		res, w, lat, ok := lap(lapConfig(), nil)
		if !ok {
			break
		}
		cycles += res.Frames
		wall += w
		lats = append(lats, lat...)
	}
	ph.end(e, cycles)
	rate := ratio(float64(cycles), wall.Seconds())
	e.e2e["ops_per_s"] = rate
	e.e2e["query_p50_ms"] = quantile(lats, 0.5)
	e.e2e["query_p90_ms"] = quantile(lats, 0.9)
	e.e2e["qoc_mae_m"] = mae
	e.info["query_samples"] = len(lats)
	if !e.trace {
		return nil
	}

	// Traced lap: the program's stage histograms through sim.Config.Obs
	// and every cycle recorded through sim.Config.Trace, then replayed
	// from outside.
	reg := obs.NewRegistry()
	cfg := lapConfig()
	cfg.Obs = &obs.Observer{Metrics: reg}
	var points []sim.TracePoint
	res, tracedWall, _, ok := lap(cfg, &points)
	if !ok {
		return nil
	}
	e.overhead(rate, float64(res.Frames)/tracedWall.Seconds())
	sums := readSimSums(reg)
	sums.record(e, reg, tracedWall)

	rec := recorded{track: track, cam: cam, seed: e.seed, points: points}
	rp := &replay{e: e}
	if err := rp.run(rec, cls); err != nil {
		return err
	}
	rp.finish(sums)
	if err := e.smallCalls(rec); err != nil {
		return err
	}
	e.layer["classifier.generate_s"] = spanSeconds(e.spans, "generate", "classifier")
	e.layer["cnn.fit_s"] = spanSeconds(e.spans, "fit", "classifier")
	return nil
}
