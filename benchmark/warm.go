package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"hsas/internal/campaign"
	"hsas/internal/lake"
	"hsas/internal/obs"
)

// simSeed is the camera-noise seed of every warm-analytics job. Which
// jobs crash depends on it, and a crash ends a run early, so it stays
// fixed rather than following --seed.
const simSeed = 1

// warmAnalytics renders no pixels and runs no simulation in its timed
// phase: it exercises job normalization and keying, DirCache reads with
// JSON decode, and lake segment decode and aggregation, so render, ISP
// and CNN changes leave it unchanged. Its set-up pays the durable cache
// writes and lake appends of a cold grid, so a cache or lake change that
// trades read cost for write cost moves setup_s and ops_per_s in
// opposite directions.
//
// Set-up runs a cold record_trace campaign grid (every Table III
// situation, case 3, 64×32) into a fresh DirCache and lake, then one
// warm-up resubmission and query. The timed phase is one closed-loop
// client alternating a resubmission of the grid, which must be all
// cache hits, with a lake query (Aggregate grouped by situation and
// case, then SummarizeTraces). ops are cached jobs resolved per second
// of resubmission time; a query is one Aggregate + SummarizeTraces pair.
// --seed permutes the grid's situation order.
func warmAnalytics(e *env) error {
	sz := e.size
	grid := campaign.Grid{
		Situations: permuted(sz.warmSits, e.seed), Cases: []int{3},
		Cameras: [][2]int{{sz.warmW, sz.warmH}}, Seeds: []int64{simSeed}, RecordTrace: true,
	}
	jobs, err := grid.Expand()
	if err != nil {
		return err
	}

	var (
		cache    *campaign.DirCache
		cacheDir string
		lakeDir  string
		coldJSON []byte
		frames   int64
		mae      float64
		busy     time.Duration // simulated-job time on the cold grid's shards
		coldWall time.Duration
	)
	resubmit := func(o *obs.Observer) (time.Duration, bool) {
		eng := &campaign.Engine{Workers: timedProcs, KernelWorkers: serialKernels, Cache: cache, Obs: o}
		t := time.Now()
		res, stats, err := eng.Run(context.Background(), jobs)
		d := e.timed("Engine.Run", "campaign", t)
		same := false
		if err == nil {
			b, merr := json.Marshal(res)
			same = merr == nil && bytes.Equal(b, coldJSON)
		}
		ok := e.op(len(jobs), err == nil && stats.Simulated == 0 && stats.CacheHits == stats.Unique && same,
			"resubmission: err=%v stats=%+v identical to cold results=%v", err, stats, same)
		return d, ok
	}
	query := func() (time.Duration, bool) {
		t := time.Now()
		groups, _, aggErr := lake.Aggregate(lakeDir, lake.Query{GroupBy: []string{"situation", "case"}})
		sum, _, sumErr := lake.SummarizeTraces(lakeDir, "")
		d := e.timed("Aggregate+SummarizeTraces", "lake", t)
		var n int64
		for _, g := range groups {
			n += g.Jobs
		}
		ok := e.op(1, aggErr == nil && sumErr == nil && len(groups) == len(sz.warmSits) && n == int64(len(jobs)) && sum.Rows == frames,
			"query: %d groups holding %d jobs (want %d, %d), %d trace rows (want %d), errors %v %v",
			len(groups), n, len(sz.warmSits), len(jobs), sum.Rows, frames, aggErr, sumErr)
		return d, ok
	}

	err = e.setup(sz.warmReps, func() error {
		dir, err := e.fresh("setup")
		if err != nil {
			return err
		}
		dc, err := campaign.NewDirCache(filepath.Join(dir, "cache"))
		if err != nil {
			return err
		}
		lw, err := lake.OpenWriter(filepath.Join(dir, "lake"), nil)
		if err != nil {
			return err
		}
		busy = 0
		eng := &campaign.Engine{
			Workers: e.procs, KernelWorkers: serialKernels, Cache: dc, Lake: lw, LakeCampaign: "warm",
			Hooks: campaign.Hooks{JobDone: func(ev campaign.JobEvent) {
				if !ev.Cached && ev.Err == nil {
					busy += time.Since(ev.Start)
				}
			}},
		}
		start := time.Now()
		res, stats, err := eng.Run(context.Background(), jobs)
		coldWall = time.Since(start)
		if cerr := lw.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("cold grid: %w", err)
		}
		if stats.Simulated != len(jobs) {
			return fmt.Errorf("cold grid simulated %d of %d jobs", stats.Simulated, len(jobs))
		}
		if coldJSON, err = json.Marshal(res); err != nil {
			return err
		}
		frames, mae = 0, 0
		for _, r := range res {
			frames += int64(r.Frames)
			mae += r.MAE / float64(len(res))
		}
		cache, cacheDir, lakeDir = dc, filepath.Join(dir, "cache"), filepath.Join(dir, "lake")
		if _, ok := resubmit(nil); !ok {
			return fmt.Errorf("warm-up resubmission failed its checks")
		}
		if _, ok := query(); !ok {
			return fmt.Errorf("warm-up query failed its checks")
		}
		return nil
	})
	if err != nil {
		return err
	}

	// run alternates resubmissions and queries for d and splits the phase
	// into half-second windows. Other tenants of the machine only ever
	// slow a window down, so each result is the quartile of the window
	// values on the fast side — the speed the code reaches in the quieter
	// quarter of the phase: the upper quartile of cached jobs resolved per
	// second of resubmission time, and the lower quartiles of the windows'
	// query p50 and p90.
	run := func(d time.Duration, o *obs.Observer) (rate, p50, p90 float64, queries int) {
		const window = time.Second / 2
		type win struct {
			resolved int
			resub    time.Duration
			lat      []float64
		}
		var wins []*win
		start := time.Now()
		for queries == 0 || time.Since(start) < d {
			i := int(time.Since(start) / window)
			for len(wins) <= i {
				wins = append(wins, &win{})
			}
			w := wins[i]
			if rd, ok := resubmit(o); ok {
				w.resolved += len(jobs)
				w.resub += rd
			}
			if qd, ok := query(); ok {
				w.lat = append(w.lat, ms(qd))
				queries++
			}
		}
		var rates, p50s, p90s []float64
		for _, w := range wins {
			// A window counts when its p90 has ten queries beyond it; the
			// self-test's short phase is one window.
			if len(w.lat) >= 100 || len(wins) == 1 {
				rates = append(rates, ratio(float64(w.resolved), w.resub.Seconds()))
				p50s = append(p50s, quantile(w.lat, 0.5))
				p90s = append(p90s, quantile(w.lat, 0.9))
			}
		}
		e.info["query_windows"] = len(p90s)
		return quantile(rates, 0.75), quantile(p50s, 0.25), quantile(p90s, 0.25), queries
	}

	ph := startPhase()
	rate, p50, p90, queries := run(e.seconds, nil)
	ph.end(e, queries*len(jobs))
	e.e2e["ops_per_s"] = rate
	e.e2e["query_p50_ms"] = p50
	e.e2e["query_p90_ms"] = p90
	e.e2e["qoc_mae_m"] = mae
	e.info["query_samples"] = queries
	if !e.trace {
		return nil
	}

	// Traced phase: the engine's counters through Engine.Obs and a span
	// around every call, then the store layers timed one call at a time.
	reg := obs.NewRegistry()
	tracedRate, _, _, _ := run(e.seconds/2, &obs.Observer{Metrics: reg})
	e.overhead(rate, tracedRate)
	e.layer["campaign.hits"] = float64(reg.Counter("hsas_campaign_cache_hits_total", "").Value())
	e.layer["campaign.simulated"] = float64(reg.Counter("hsas_campaign_cache_misses_total", "").Value())
	e.layer["campaign.shard_busy_frac"] = busy.Seconds() / (float64(e.procs) * coldWall.Seconds())
	return e.storeLayers(jobs, cacheDir, lakeDir)
}
