package main

import (
	"fmt"
	"path/filepath"
	"time"

	"hsas/internal/campaign"
	"hsas/internal/lake"
)

// storeLayers times the campaign and lake layers from outside on one
// campaign's jobs, whose results must already sit in the cache at
// cacheDir and whose rows sit in the lake at lakeDir: content
// addressing, cache reads, durable cache writes and lake appends into
// scratch stores, a lake flush, and scans of the campaign's lake.
func (e *env) storeLayers(jobs []campaign.JobSpec, cacheDir, lakeDir string) error {
	cache, err := campaign.NewDirCache(cacheDir)
	if err != nil {
		return err
	}
	scratch, err := e.fresh("store")
	if err != nil {
		return err
	}
	putCache, err := campaign.NewDirCache(filepath.Join(scratch, "cache"))
	if err != nil {
		return err
	}
	lw, err := lake.OpenWriter(filepath.Join(scratch, "lake"), nil)
	if err != nil {
		return err
	}
	defer lw.Close()

	var key, get, put, appendRow time.Duration
	hits := 0
	for i := range jobs {
		spec, err := jobs[i].Normalize()
		if err != nil {
			return err
		}
		t := time.Now()
		k, err := spec.Key()
		key += e.timed("JobSpec.Key", "campaign", t)
		if err != nil {
			return err
		}
		t = time.Now()
		res, ok, err := cache.Get(k)
		get += e.timed("DirCache.Get", "campaign", t)
		if err != nil || !ok {
			continue
		}
		hits++
		t = time.Now()
		err = putCache.Put(k, res)
		put += e.timed("DirCache.Put", "campaign", t)
		if err != nil {
			return err
		}
		row := campaign.LakeResultRow("bench", &spec, k, res, false)
		t = time.Now()
		err = lw.AppendResult(row)
		appendRow += e.timed("Writer.AppendResult", "lake", t)
		if err != nil {
			return err
		}
	}
	if !e.op(1, hits == len(jobs), "%d of %d rebuilt job keys hit the campaign's cache", hits, len(jobs)) || hits == 0 {
		return nil
	}
	t := time.Now()
	err = lw.Flush()
	e.layer["lake.flush_ms"] = ms(e.timed("Writer.Flush", "lake", t))
	if err != nil {
		return fmt.Errorf("lake flush: %w", err)
	}
	n := float64(len(jobs))
	e.layer["campaign.key_us"] = key.Seconds() * 1e6 / n
	e.layer["campaign.cache_get_us"] = get.Seconds() * 1e6 / n
	e.layer["campaign.cache_put_ms"] = ms(put) / float64(hits)
	e.layer["lake.append_us_per_row"] = appendRow.Seconds() * 1e6 / float64(hits)

	t = time.Now()
	_, results, err := lake.Aggregate(lakeDir, lake.Query{})
	if err != nil {
		return err
	}
	_, traces, err := lake.SummarizeTraces(lakeDir, "")
	if err != nil {
		return err
	}
	scan := e.timed("scan", "lake", t)
	rows, bytes := float64(results.Rows+traces.Rows), float64(results.Bytes+traces.Bytes)
	e.layer["lake.bytes_per_row"] = ratio(bytes, rows)
	e.layer["lake.scan_rows_per_s"] = rows / scan.Seconds()
	return nil
}
