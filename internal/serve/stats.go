package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"adarnet/internal/obs"
	"adarnet/internal/tensor"
	"adarnet/internal/tensor/cpu"
)

// counters are the engine's hot-path metrics; the scalar fields are atomics
// and the stage histograms are lock-free, so every pipeline stage records
// without locks. The histograms are the single source of truth for stage
// timing: EngineStats means and tails, the /metrics exposition, and the
// benchmark harness all derive from the same buckets, so they can never
// disagree.
type counters struct {
	requests  atomic.Uint64 // accepted submissions
	completed atomic.Uint64 // replies delivered with a result
	canceled  atomic.Uint64 // callers that gave up or arrived dead
	rejected  atomic.Uint64 // queue-full rejections
	coalesced atomic.Uint64 // requests served from another request's forward pass
	panics    atomic.Uint64 // panics recovered at a worker boundary
	retried   atomic.Uint64 // individual re-runs after a batch-level panic

	queueWait obs.Histogram // submit → batch pickup, ns, per request
	forward   obs.Histogram // batched forward pass, ns, per batch group
	assemble  obs.Histogram // cap/assemble/invert + demux, ns, per batch group
	e2e       obs.Histogram // submit → reply delivered, ns, per completed request
	occupancy obs.Histogram // requests per flushed batch
	cacheHit  obs.Histogram // cache lookup → copied reply, ns, per cache hit

	// Stage exemplars: per histogram bucket, the trace ID of the slowest
	// observation — so an EngineStats tail can name the trace to pull from
	// /debug/traces. Recorded from the same clock reads as the histograms;
	// free when tracing is off (zero trace IDs are dropped on entry).
	queueWaitEx obs.Exemplars
	forwardEx   obs.Exemplars
	assembleEx  obs.Exemplars
	e2eEx       obs.Exemplars
	cacheHitEx  obs.Exemplars
}

// EngineStats is a point-in-time snapshot of the engine's counters and
// latency distributions.
type EngineStats struct {
	// Precision names the engine's numeric path: "float64" (default,
	// bit-identical to direct inference) or "float32" (fused fast path).
	Precision string

	// GemmKernel names the float32 GEMM micro-kernel active in this
	// process ("avx2", "neon", or "generic") and CPUFeatures the detected
	// vector features — surfaced here so a field perf regression can be
	// triaged from /stats alone (a box silently falling back to the scalar
	// kernel looks exactly like a 2–4× serve-path slowdown).
	GemmKernel  string
	CPUFeatures string

	Requests  uint64 // submissions accepted into the queue
	Completed uint64 // predictions delivered
	Canceled  uint64 // requests dropped by context cancellation
	Rejected  uint64 // submissions shed with ErrQueueFull
	Batches   uint64 // forward-pass batches dispatched
	Coalesced uint64 // requests that shared an identical in-flight request's forward pass

	// Panics counts panics recovered at worker boundaries — each one would
	// have killed the process before fault containment. Nonzero Panics with
	// the process still serving is the containment working as designed, but
	// it always indicates a bug worth chasing via the logged stack.
	Panics uint64
	// Retried counts requests re-run individually after a batch-level panic
	// (the graceful-degradation path that keeps batch-mates of a poisoned
	// request succeeding).
	Retried uint64

	// Prediction-cache counters (DESIGN.md §12); all zero without
	// WithCache. Cache hits bypass the queue, so they appear here and in
	// the CacheHit histogram rather than in Requests/Completed/E2E. The
	// same atomics feed the adarnet_serve_cache_* series on /metrics, so
	// the two views can never disagree.
	CacheHits         uint64 // predictions served from the cache
	CacheMisses       uint64 // lookups that fell through to the pipeline
	CacheNegativeHits uint64 // cached ErrDiverged answers
	CacheEvicted      uint64 // entries evicted at the byte budget
	CacheBytes        int64  // resident cache bytes
	CacheEntries      int64  // resident cache entries

	// MeanBatchOccupancy is requests per batch — the micro-batching win.
	MeanBatchOccupancy float64

	// MeanQueueWait is the average submit → batch-pickup latency.
	MeanQueueWait time.Duration
	// MeanForward is the average batched-forward stage time per batch.
	MeanForward time.Duration
	// MeanAssemble is the average assembly/demux stage time per batch.
	MeanAssemble time.Duration
	// MeanE2E is the average submit → reply latency per completed request.
	MeanE2E time.Duration
	// MeanCacheHit is the average lookup → copied-reply latency per cache
	// hit — the cost of serving a memoized prediction.
	MeanCacheHit time.Duration

	// Per-stage latency tails, from the same histograms that feed the means
	// and the /metrics exposition. E2E covers submit → reply for completed
	// requests; the stage tails are per batch (Forward, Assemble) or per
	// request (QueueWait).
	QueueWaitTail Tail
	ForwardTail   Tail
	AssembleTail  Tail
	E2ETail       Tail
	CacheHitTail  Tail
}

// Tail summarizes a latency distribution at the quantiles operators watch.
// SlowestTrace, when tracing is on, is the trace ID of the slowest
// observation the stage has seen — the exemplar to pull from /debug/traces
// when the tail looks wrong.
type Tail struct {
	P50          time.Duration
	P95          time.Duration
	P99          time.Duration
	SlowestTrace string `json:",omitempty"`
}

func tailOf(s obs.Snapshot, ex obs.Exemplar) Tail {
	return Tail{
		P50:          time.Duration(s.Quantile(0.50)),
		P95:          time.Duration(s.Quantile(0.95)),
		P99:          time.Duration(s.Quantile(0.99)),
		SlowestTrace: ex.Trace.String(),
	}
}

// Stats snapshots the engine counters. Safe to call concurrently with
// serving; the fields are read individually, not as one atomic unit.
// All timing fields — means and tails — derive from the stage histogram
// snapshots, the same data /metrics exports.
func (e *Engine) Stats() EngineStats {
	c := &e.stats
	s := EngineStats{
		Precision:   e.Precision().String(),
		GemmKernel:  tensor.Gemm32KernelName(),
		CPUFeatures: cpu.Summary(),

		Requests:  c.requests.Load(),
		Completed: c.completed.Load(),
		Canceled:  c.canceled.Load(),
		Rejected:  c.rejected.Load(),
		Coalesced: c.coalesced.Load(),
		Panics:    c.panics.Load(),
		Retried:   c.retried.Load(),
	}
	queueWait := c.queueWait.Snapshot()
	forward := c.forward.Snapshot()
	assemble := c.assemble.Snapshot()
	e2e := c.e2e.Snapshot()
	occupancy := c.occupancy.Snapshot()
	cacheHit := c.cacheHit.Snapshot()
	if fc := e.cache; fc != nil {
		s.CacheHits = fc.hits.Load()
		s.CacheMisses = fc.misses.Load()
		s.CacheNegativeHits = fc.negHits.Load()
		s.CacheEvicted = fc.evicted.Load()
		s.CacheBytes = fc.bytes.Load()
		s.CacheEntries = fc.entries.Load()
	}
	s.Batches = occupancy.Count
	s.MeanBatchOccupancy = occupancy.Mean()
	s.MeanQueueWait = time.Duration(queueWait.Mean())
	s.MeanForward = time.Duration(forward.Mean())
	s.MeanAssemble = time.Duration(assemble.Mean())
	s.MeanE2E = time.Duration(e2e.Mean())
	s.MeanCacheHit = time.Duration(cacheHit.Mean())
	s.QueueWaitTail = tailOf(queueWait, c.queueWaitEx.Slowest())
	s.ForwardTail = tailOf(forward, c.forwardEx.Slowest())
	s.AssembleTail = tailOf(assemble, c.assembleEx.Slowest())
	s.E2ETail = tailOf(e2e, c.e2eEx.Slowest())
	s.CacheHitTail = tailOf(cacheHit, c.cacheHitEx.Slowest())
	return s
}

// String renders the snapshot for logs.
func (s EngineStats) String() string {
	return fmt.Sprintf("precision=%s requests=%d completed=%d canceled=%d rejected=%d batches=%d coalesced=%d panics=%d retried=%d occupancy=%.2f queue_wait=%v forward=%v assemble=%v cache_hits=%d cache_misses=%d cache_evicted=%d cache_bytes=%d",
		s.Precision, s.Requests, s.Completed, s.Canceled, s.Rejected, s.Batches, s.Coalesced, s.Panics, s.Retried,
		s.MeanBatchOccupancy, s.MeanQueueWait, s.MeanForward, s.MeanAssemble,
		s.CacheHits, s.CacheMisses, s.CacheEvicted, s.CacheBytes)
}

// RegisterMetrics attaches the engine's counters and stage histograms to a
// metrics registry under the adarnet_serve_* names (DESIGN.md §10). The
// registry reads the engine's own instruments — there is no second set of
// books — so /metrics and Stats() always agree. Typically wired through the
// WithMetrics option; exported for callers that construct the registry
// after the engine.
func (e *Engine) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c := &e.stats
	reg.CounterFunc("adarnet_serve_requests_total", "Submissions accepted into the queue.",
		func() float64 { return float64(c.requests.Load()) })
	reg.CounterFunc("adarnet_serve_completed_total", "Predictions delivered.",
		func() float64 { return float64(c.completed.Load()) })
	reg.CounterFunc("adarnet_serve_canceled_total", "Requests dropped by context cancellation.",
		func() float64 { return float64(c.canceled.Load()) })
	reg.CounterFunc("adarnet_serve_rejected_total", "Submissions shed with ErrQueueFull.",
		func() float64 { return float64(c.rejected.Load()) })
	reg.CounterFunc("adarnet_serve_coalesced_total", "Requests served from another request's forward pass.",
		func() float64 { return float64(c.coalesced.Load()) })
	reg.CounterFunc("adarnet_serve_panics_total", "Panics recovered at worker boundaries.",
		func() float64 { return float64(c.panics.Load()) })
	reg.CounterFunc("adarnet_serve_retried_total", "Individual re-runs after a batch-level panic.",
		func() float64 { return float64(c.retried.Load()) })
	reg.GaugeFunc("adarnet_serve_precision_float32", "1 when the engine serves the float32 fast path, 0 for the float64 default.",
		func() float64 {
			if e.Precision() == Float32 {
				return 1
			}
			return 0
		})
	// Cache series read the flowCache atomics through a nil guard so the
	// names are stable whether or not the engine was built with WithCache;
	// EngineStats reads the same atomics, so the views always agree.
	cacheVal := func(read func(*flowCache) float64) func() float64 {
		return func() float64 {
			if e.cache == nil {
				return 0
			}
			return read(e.cache)
		}
	}
	reg.CounterFunc("adarnet_serve_cache_hits_total", "Predictions served from the content-addressed cache.",
		cacheVal(func(fc *flowCache) float64 { return float64(fc.hits.Load()) }))
	reg.CounterFunc("adarnet_serve_cache_misses_total", "Cache lookups that fell through to the batched pipeline.",
		cacheVal(func(fc *flowCache) float64 { return float64(fc.misses.Load()) }))
	reg.CounterFunc("adarnet_serve_cache_negative_hits_total", "Cached ErrDiverged answers served without re-solving.",
		cacheVal(func(fc *flowCache) float64 { return float64(fc.negHits.Load()) }))
	reg.CounterFunc("adarnet_serve_cache_evicted_total", "Cache entries evicted at the byte budget.",
		cacheVal(func(fc *flowCache) float64 { return float64(fc.evicted.Load()) }))
	reg.GaugeFunc("adarnet_serve_cache_bytes", "Resident prediction-cache bytes.",
		cacheVal(func(fc *flowCache) float64 { return float64(fc.bytes.Load()) }))
	reg.GaugeFunc("adarnet_serve_cache_entries", "Resident prediction-cache entries.",
		cacheVal(func(fc *flowCache) float64 { return float64(fc.entries.Load()) }))
	reg.GaugeFunc("adarnet_serve_cache_enabled", "1 when the engine was built with WithCache, 0 otherwise.",
		func() float64 {
			if e.cache != nil {
				return 1
			}
			return 0
		})
	reg.AttachHistogram("adarnet_serve_queue_wait_seconds", "Submit to batch-pickup wait per request.", 1e-9, &c.queueWait)
	reg.AttachHistogram("adarnet_serve_forward_seconds", "Batched forward-pass time per batch group.", 1e-9, &c.forward)
	reg.AttachHistogram("adarnet_serve_assemble_seconds", "Assembly/demux time per batch group.", 1e-9, &c.assemble)
	reg.AttachHistogram("adarnet_serve_e2e_seconds", "Submit to reply latency per completed request.", 1e-9, &c.e2e)
	reg.AttachHistogram("adarnet_serve_batch_occupancy", "Requests per flushed batch.", 1, &c.occupancy)
	reg.AttachHistogram("adarnet_serve_cache_hit_seconds", "Lookup to copied-reply latency per cache hit.", 1e-9, &c.cacheHit)
}
