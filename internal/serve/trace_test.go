package serve

import (
	"context"
	"testing"
	"time"

	"adarnet/internal/obs"
)

// spanByName indexes a trace record's timeline, failing the test on a
// duplicate so each assertion names exactly one span.
func spanByName(t *testing.T, rec obs.TraceRecord) map[string]obs.SpanView {
	t.Helper()
	m := make(map[string]obs.SpanView, len(rec.Spans))
	for _, sv := range rec.Spans {
		if _, dup := m[sv.Name]; dup {
			t.Fatalf("duplicate span %q in trace %+v", sv.Name, rec)
		}
		m[sv.Name] = sv
	}
	return m
}

// msOf converts a histogram-derived duration to the same milliseconds a
// SpanView carries. Both sides divide the identical nanosecond total by
// 1e6, so equality below is exact, not approximate.
func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// TestEngineTraceTimeline: one request through an engine on a cache miss
// yields a single retained trace covering root → cache_probe/engine →
// queue_wait/forward/assemble, with durations that agree exactly with the
// stage histograms (same clock reads feed both).
func TestEngineTraceTimeline(t *testing.T) {
	flows := testFlows(1, 8, 16)
	m := testModel(flows)
	e, err := New(m, WithMaxBatch(1), WithMaxDelay(time.Millisecond),
		WithWorkers(1), WithCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	tracer := obs.NewTracer(obs.TracerConfig{SampleEvery: 1})
	ctx, root := tracer.StartRequest(context.Background(), "POST /predict", "")
	ctx, note := obs.WithRequestNote(ctx)

	want := m.Infer(flows[0])
	got, err := e.PredictFlow(ctx, flows[0])
	if err != nil {
		t.Fatal(err)
	}
	sameInf(t, "traced engine", want, got)
	root.End()

	recs := tracer.Trace(root.Trace().String())
	if len(recs) != 1 {
		t.Fatalf("retained %d records, want 1", len(recs))
	}
	rec := recs[0]
	spans := spanByName(t, rec)
	for _, name := range []string{"POST /predict", "cache_probe", "engine", "queue_wait", "forward", "assemble"} {
		if _, ok := spans[name]; !ok {
			t.Fatalf("trace missing %q span; have %+v", name, rec.Spans)
		}
	}

	// Parentage: the timeline nests middleware → engine stages.
	rootSpan := spans["POST /predict"]
	if rec.Spans[0].Name != rootSpan.Name || rootSpan.ParentID != "" {
		t.Errorf("root span must lead the timeline with no parent: %+v", rec.Spans[0])
	}
	for _, name := range []string{"cache_probe", "engine"} {
		if spans[name].ParentID != rootSpan.SpanID {
			t.Errorf("%s parent = %q, want root %q", name, spans[name].ParentID, rootSpan.SpanID)
		}
	}
	for _, name := range []string{"queue_wait", "forward", "assemble"} {
		if spans[name].ParentID != spans["engine"].SpanID {
			t.Errorf("%s parent = %q, want engine %q", name, spans[name].ParentID, spans["engine"].SpanID)
		}
	}

	// Attributes: the probe records the miss.
	if got := spans["cache_probe"].Attrs["hit"]; got != false {
		t.Errorf("cache_probe hit attr = %v, want false", got)
	}
	if note.CacheHit() {
		t.Error("request note claims a cache hit on a cold cache")
	}
	if _, ok := spans["forward"].Attrs["group"].(int64); !ok {
		t.Errorf("forward span missing group attr: %+v", spans["forward"])
	}

	// Timing: span durations and the stage histograms derive from the SAME
	// clock reads, and with exactly one sample each histogram mean IS that
	// sample — so the comparison is exact equality, no tolerance.
	st := e.Stats()
	if st.Completed != 1 || st.CacheMisses != 1 || st.CacheHits != 0 {
		t.Fatalf("stats = completed %d, misses %d, hits %d", st.Completed, st.CacheMisses, st.CacheHits)
	}
	for _, chk := range []struct {
		span string
		mean time.Duration
	}{
		{"queue_wait", st.MeanQueueWait},
		{"forward", st.MeanForward},
		{"assemble", st.MeanAssemble},
		{"engine", st.MeanE2E},
	} {
		if got := spans[chk.span].DurationMs; got != msOf(chk.mean) {
			t.Errorf("%s span = %vms, histogram mean = %vms; must share clock reads", chk.span, got, msOf(chk.mean))
		}
	}

	// Exemplars: every stage tail names this trace as its slowest — the
	// only observation there is.
	id := root.Trace().String()
	for name, tail := range map[string]Tail{
		"queue_wait": st.QueueWaitTail, "forward": st.ForwardTail,
		"assemble": st.AssembleTail, "e2e": st.E2ETail,
	} {
		if tail.SlowestTrace != id {
			t.Errorf("%s tail exemplar = %q, want %q", name, tail.SlowestTrace, id)
		}
	}
}

// TestEngineCacheHitSpan: a repeat request served from the cache emits a
// cache_hit span whose duration equals the CacheHit histogram mean, and
// stamps the hit on the request note.
func TestEngineCacheHitSpan(t *testing.T) {
	flows := testFlows(1, 8, 16)
	m := testModel(flows)
	e, err := New(m, WithMaxBatch(1), WithMaxDelay(time.Millisecond), WithWorkers(1), WithCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Warm the cache untraced.
	if _, err := e.PredictFlow(context.Background(), flows[0]); err != nil {
		t.Fatal(err)
	}

	tracer := obs.NewTracer(obs.TracerConfig{SampleEvery: 1})
	ctx, root := tracer.StartRequest(context.Background(), "POST /predict", "")
	ctx, note := obs.WithRequestNote(ctx)
	if _, err := e.PredictFlow(ctx, flows[0]); err != nil {
		t.Fatal(err)
	}
	root.End()

	if !note.CacheHit() {
		t.Error("cache hit not stamped on the request note")
	}
	recs := tracer.Trace(root.Trace().String())
	if len(recs) != 1 {
		t.Fatalf("retained %d records", len(recs))
	}
	spans := spanByName(t, recs[0])
	hit, ok := spans["cache_hit"]
	if !ok {
		t.Fatalf("no cache_hit span: %+v", recs[0].Spans)
	}
	if _, probed := spans["cache_probe"]; probed {
		t.Error("a hit must not also record a miss probe")
	}
	if _, engined := spans["engine"]; engined {
		t.Error("cache hit entered the batching pipeline")
	}
	st := e.Stats()
	if st.CacheHits != 1 {
		t.Fatalf("cache hits = %d", st.CacheHits)
	}
	if hit.DurationMs != msOf(st.MeanCacheHit) {
		t.Errorf("cache_hit span = %vms, histogram mean = %vms", hit.DurationMs, msOf(st.MeanCacheHit))
	}
	if st.CacheHitTail.SlowestTrace != root.Trace().String() {
		t.Errorf("cache-hit exemplar = %q, want %q", st.CacheHitTail.SlowestTrace, root.Trace())
	}
}

// TestTracingOffZeroSpans: without a recording span in the context the
// pipeline allocates no spans and the stage exemplars stay empty, so the
// hot path carries no tracing cost beyond nil checks.
func TestTracingOffZeroSpans(t *testing.T) {
	flows := testFlows(1, 8, 16)
	m := testModel(flows)
	e, err := New(m, WithMaxDelay(time.Millisecond), WithCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	if _, err := e.PredictFlow(context.Background(), flows[0]); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Completed != 1 {
		t.Fatalf("completed = %d", st.Completed)
	}
	for name, tail := range map[string]Tail{
		"queue_wait": st.QueueWaitTail, "e2e": st.E2ETail,
	} {
		if tail.SlowestTrace != "" {
			t.Errorf("%s exemplar = %q with tracing off, want empty", name, tail.SlowestTrace)
		}
	}
}
