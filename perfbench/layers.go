package main

import (
	"repro/internal/analysis"
	"repro/internal/netcalc"
)

// This file holds every call into the analysis cache and the netcalc
// curve memo, the two layers of process-wide reuse. When either layer
// changes shape, only this file follows it.

// layerCounters is a snapshot of the reuse layers' counters.
type layerCounters struct {
	cache analysis.CacheStats
	memo  netcalc.MemoStats
}

func readLayerCounters() layerCounters {
	return layerCounters{cache: analysis.DefaultCacheStats(), memo: netcalc.Stats()}
}

// resetLayerCaches empties both reuse layers, so the measured phase
// starts as a freshly started process would, whatever set-up computed.
func resetLayerCaches() {
	analysis.ResetDefaultCache()
	netcalc.ResetMemo()
}

// withoutReuse runs f with both reuse layers switched off, so expected
// outputs are computed independently of the caches the measured ops use
// and leave nothing in them.
func withoutReuse(f func() error) error {
	cache := analysis.SetCacheEnabled(false)
	memo := netcalc.SetMemoEnabled(false)
	defer func() {
		analysis.SetCacheEnabled(cache)
		netcalc.SetMemoEnabled(memo)
	}()
	return f()
}

// layerDeltas turns two snapshots into the per-layer metrics: hit ratios
// over the measured phase and table sizes at its end.
func layerDeltas(a, b layerCounters) map[string]float64 {
	ratio := func(hits, misses uint64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	return map[string]float64{
		"analysis.cache_hit_ratio": ratio(b.cache.Hits-a.cache.Hits, b.cache.Misses-a.cache.Misses),
		"analysis.cache_entries":   float64(b.cache.MuxEntries + b.cache.BacklogEntries + b.cache.PathEntries),
		"netcalc.memo_hit_ratio":   ratio(b.memo.Hits-a.memo.Hits, b.memo.Misses-a.memo.Misses),
		"netcalc.interned":         float64(b.memo.Interned),
	}
}
