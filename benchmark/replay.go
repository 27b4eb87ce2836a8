package main

import (
	"fmt"
	"math"
	"time"

	"hsas/internal/camera"
	"hsas/internal/classifier"
	"hsas/internal/control"
	"hsas/internal/isp"
	"hsas/internal/obs"
	"hsas/internal/perception"
	"hsas/internal/platform"
	"hsas/internal/raster"
	"hsas/internal/sim"
	"hsas/internal/vehicle"
	"hsas/internal/world"
)

// ispStages are the ISP stages in execution order with their metric
// names.
var ispStages = []struct {
	stage  isp.Stage
	metric string
}{
	{isp.Demosaic, "isp.demosaic_ms"},
	{isp.Denoise, "isp.denoise_ms"},
	{isp.ColorMap, "isp.colormap_ms"},
	{isp.GamutMap, "isp.gamutmap_ms"},
	{isp.ToneMap, "isp.tonemap_ms"},
}

var classifierMetrics = [3]string{"classifier.infer_us.road", "classifier.infer_us.lane", "classifier.infer_us.scene"}

// recorded is one closed-loop run's trace: the cycles it executed on its
// track, with the seed its camera noise was drawn from.
type recorded struct {
	track  *world.Track
	cam    camera.Camera
	seed   int64
	points []sim.TracePoint
}

// replay re-executes recorded control cycles from outside the loop with
// one call into each layer's public API per stage, timing and spanning
// every call. TracePoint carries no heading, so frames are rendered with
// the vehicle aligned to the track; that changes pixels, not cost.
type replay struct {
	e      *env
	cycles int
	render time.Duration
	isp    [5]time.Duration // by isp.Stage
	ispN   [5]int
	infer  [3]time.Duration
	detect time.Duration
	detOK  int
}

// timed records a span from start to now and returns its duration.
func (e *env) timed(name, cat string, start time.Time) time.Duration {
	d := time.Since(start)
	e.spans.SpanAt(name, cat, 0, start, start.Add(d), nil)
	return d
}

// run replays every e.size.replayEvery-th cycle of one recorded run.
// cls, when set, are the run's CNN sensors, replayed in kind order.
func (r *replay) run(rec recorded, cls []*classifier.Classifier) error {
	e := r.e
	rend := camera.NewRenderer(rec.track, rec.cam)
	rend.Workers = 1
	det := perception.NewDetector(perception.NewGeometry(rec.cam))
	w, h := rec.cam.Width, rec.cam.Height
	raw := raster.GetBayer(w, h)
	defer raster.PutBayer(raw)
	bufA, bufB := raster.GetRGB(w, h), raster.GetRGB(w, h)
	defer raster.PutRGB(bufA)
	defer raster.PutRGB(bufB)

	for i := 0; i < len(rec.points); i += e.size.replayEvery {
		p := rec.points[i]
		cfg, ok := isp.ByID(p.Setting.ISP)
		roi, okROI := perception.ROIByID(p.Setting.ROI)
		if !ok || !okROI {
			return fmt.Errorf("replay: cycle %d names unknown setting %+v", i, p.Setting)
		}
		cycle := time.Now()

		t := time.Now()
		rend.RenderRAWInto(raw, camera.PoseOnTrack(rec.track, p.S, p.Lat, 0), rec.seed+int64(i)*7919)
		r.render += e.timed("RenderRAWInto", "camera", t)

		t = time.Now()
		img := isp.DemosaicBilinearInto(raw, bufA, 1)
		r.stage(isp.Demosaic, t)
		if cfg.Has(isp.Denoise) {
			t = time.Now()
			img = isp.DenoiseBilateralInto(img, bufB, 1)
			r.stage(isp.Denoise, t)
		}
		for _, s := range []struct {
			stage isp.Stage
			apply func(*raster.RGB, int)
		}{
			{isp.ColorMap, isp.ApplyColorMapWorkers},
			{isp.GamutMap, isp.ApplyGamutMapWorkers},
			{isp.ToneMap, isp.ApplyToneMapWorkers},
		} {
			if cfg.Has(s.stage) {
				t = time.Now()
				s.apply(img, 1)
				r.stage(s.stage, t)
			}
		}

		for k, c := range cls {
			t = time.Now()
			c.Classify(img)
			r.infer[k] += e.timed("Classify", "classifier", t)
		}

		t = time.Now()
		if det.Detect(img, roi, perception.LookAhead).OK {
			r.detOK++
		}
		r.detect += e.timed("Detect", "perception", t)

		e.spans.Span("cycle", "replay", 0, cycle, map[string]any{"frame": i, "sector": p.Sector, "isp": p.Setting.ISP})
		r.cycles++
	}
	return nil
}

func (r *replay) stage(s isp.Stage, start time.Time) {
	r.isp[s] += r.e.timed(s.String(), "isp", start)
	r.ispN[s]++
}

// finish records the replay's per-layer metrics and, against the stage
// sums the program measured for the same runs, the replay sanity ratios.
func (r *replay) finish(sums simSums) {
	l := r.e.layer
	n := float64(r.cycles)
	l["camera.render_ms"] = ms(r.render) / n
	calls := 0
	for _, s := range ispStages {
		l[s.metric] = ratio(ms(r.isp[s.stage]), float64(r.ispN[s.stage]))
		calls += r.ispN[s.stage]
	}
	l["isp.calls"] = float64(calls)
	l["perception.detect_ms"] = ms(r.detect) / n
	l["perception.ok_ratio"] = float64(r.detOK) / n
	for k, name := range classifierMetrics {
		l[name] = r.infer[k].Seconds() * 1e6 / n
	}
	var ispTotal time.Duration
	for _, d := range r.isp {
		ispTotal += d
	}
	perCycle := func(sum float64) float64 { return sum / float64(sums.cycles) }
	l["bench.replay_render_ratio"] = ratio(r.render.Seconds()/n, perCycle(sums.stage["render"]))
	l["bench.replay_isp_ratio"] = ratio(ispTotal.Seconds()/n, perCycle(sums.stage["isp"]))
	l["bench.replay_detect_ratio"] = ratio(r.detect.Seconds()/n, perCycle(sums.stage["detect"]))
	r.e.info["replayed_cycles"] = r.cycles
}

// designKey identifies a controller design as the sim caches them.
type designKey struct{ speed, hMs, tauMs float64 }

// smallCalls times the sub-microsecond calls of the recorded cycles —
// track localization, the LQR step and plant integration — in loops
// long enough to measure, and the controller designs they need.
func (e *env) smallCalls(rec recorded) error {
	type cyc struct {
		p    sim.TracePoint
		x, y float64
		ctl  *control.Controller
	}
	xavier, params := platform.Xavier(), vehicle.BMWX5()
	ctls := map[designKey]*control.Controller{}
	var cycles []cyc
	var design time.Duration
	for _, p := range rec.points {
		k := designKey{p.Setting.SpeedKmph, p.HMs, p.TauMs}
		if ctls[k] == nil {
			t := time.Now()
			d, err := control.NewDesign(params, k.speed, k.hMs/1000, xavier.CeilToStep(k.tauMs)/1000, perception.LookAhead)
			design += e.timed("NewDesign", "control", t)
			if err != nil {
				return fmt.Errorf("controller design %+v: %w", k, err)
			}
			ctls[k] = control.NewController(d)
		}
		vp := camera.PoseOnTrack(rec.track, p.S, p.Lat, 0)
		cycles = append(cycles, cyc{p, vp.X, vp.Y, ctls[k]})
	}
	if len(cycles) == 0 {
		return fmt.Errorf("no recorded cycles")
	}
	e.layer["control.design_us"] = design.Seconds() * 1e6 / float64(len(ctls))

	loop := func(name, cat string, body func() int) float64 {
		start, calls := time.Now(), 0
		for calls == 0 || time.Since(start) < e.size.minBatch {
			calls += body()
		}
		return float64(e.timed(name, cat, start).Nanoseconds()) / float64(calls)
	}
	e.layer["world.locate_ns"] = loop("Track.Locate", "world", func() int {
		for _, c := range cycles {
			rec.track.Locate(c.x, c.y, c.p.S, 10, 15, 8)
		}
		return len(cycles)
	})
	e.layer["control.step_ns"] = loop("Controller.Step", "control", func() int {
		for _, c := range cycles {
			c.ctl.Step(c.p.YLMeas, 0)
		}
		return len(cycles)
	})
	e.layer["vehicle.step_ns"] = loop("Plant.Step", "vehicle", func() int {
		plant := vehicle.NewPlant(params, vehicle.Kmph(cycles[0].p.Setting.SpeedKmph), vehicle.State{})
		steps := 0
		for _, c := range cycles {
			plant.Vx = vehicle.Kmph(c.p.Setting.SpeedKmph)
			plant.Command(c.p.Steer)
			for k := math.Round(c.p.HMs / 5); k > 0; k-- {
				plant.Step(0.005)
				steps++
			}
		}
		return steps
	})
	return nil
}

// simSums are the program's own per-stage wall-time sums, read from the
// hsas_sim_stage_seconds histograms a sim.Config.Obs registry collects.
type simSums struct {
	stage  map[string]float64
	cycles int64
}

var simStages = []string{"render", "isp", "classify", "detect", "control"}

func readSimSums(reg *obs.Registry) simSums {
	s := simSums{stage: map[string]float64{}}
	for _, n := range simStages {
		h := reg.Histogram("hsas_sim_stage_seconds", "", obs.DefBuckets, obs.L("stage", n))
		s.stage[n] = h.Sum()
		s.cycles = h.Count()
	}
	return s
}

// record stores the sim.* per-layer metrics: the stage sums, the rest of
// the runs' wall time (physics, localization and loop overhead) and the
// cycle and detection-failure counters.
func (s simSums) record(e *env, reg *obs.Registry, wall time.Duration) {
	other := wall.Seconds()
	for _, n := range simStages {
		e.layer["sim."+n+"_s"] = s.stage[n]
		other -= s.stage[n]
	}
	e.layer["sim.other_s"] = other
	e.layer["sim.cycles"] = float64(reg.Counter("hsas_sim_cycles_total", "").Value())
	e.layer["sim.detect_fails"] = float64(reg.Counter("hsas_sim_detect_fail_total", "").Value())
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }
