package obs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseTraceparent(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	cases := []struct {
		name    string
		in      string
		ok      bool
		sampled bool
	}{
		{"valid sampled", valid, true, true},
		{"valid unsampled", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00", true, false},
		{"empty", "", false, false},
		{"too short", valid[:54], false, false},
		{"version 00 too long", valid + "0", false, false},
		{"future version longer ok", "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", true, true},
		{"future version bad separator", "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", false, false},
		{"version ff", "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false, false},
		{"uppercase hex", "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", false, false},
		{"zero trace id", "00-00000000000000000000000000000000-00f067aa0ba902b7-01", false, false},
		{"zero parent id", "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", false, false},
		{"bad delimiter", "00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false, false},
		{"non-hex trace", "00-4bf92f3577b34da6a3ce929d0e0e473g-00f067aa0ba902b7-01", false, false},
		{"garbage", strings.Repeat("z", traceparentLen), false, false},
	}
	for _, tc := range cases {
		trace, parent, sampled, ok := ParseTraceparent(tc.in)
		if ok != tc.ok {
			t.Errorf("%s: ok=%v, want %v", tc.name, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if sampled != tc.sampled {
			t.Errorf("%s: sampled=%v, want %v", tc.name, sampled, tc.sampled)
		}
		if trace.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
			t.Errorf("%s: trace=%s", tc.name, trace)
		}
		if parent.String() != "00f067aa0ba902b7" {
			t.Errorf("%s: parent=%s", tc.name, parent)
		}
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	trace, span := NewTraceID(), NewSpanID()
	for _, sampled := range []bool{true, false} {
		h := FormatTraceparent(trace, span, sampled)
		if len(h) != traceparentLen {
			t.Fatalf("len=%d, want %d", len(h), traceparentLen)
		}
		gt, gs, gsamp, ok := ParseTraceparent(h)
		if !ok || gt != trace || gs != span || gsamp != sampled {
			t.Fatalf("round trip %q: got (%s, %s, %v, %v)", h, gt, gs, gsamp, ok)
		}
	}
}

func TestNewIDsUniqueAndNonZero(t *testing.T) {
	seen := make(map[TraceID]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id.IsZero() {
			t.Fatal("zero trace ID")
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %s", id)
		}
		seen[id] = true
	}
	if NewSpanID().IsZero() {
		t.Fatal("zero span ID")
	}
}

// keepAll retains every trace: sampling 1-in-1, no head sampling.
func keepAll() TracerConfig { return TracerConfig{SampleEvery: 1} }

func TestSpanTreeAssembly(t *testing.T) {
	tr := NewTracer(keepAll())
	ctx, root := tr.StartRequest(context.Background(), "POST /predict", "")
	if !root.Recording() {
		t.Fatal("fresh root not recording")
	}
	child := SpanFromContext(ctx).StartChild("engine", Int("replica", 2))
	start := child.start
	grand := child.StartChildAt("forward", start.Add(time.Millisecond))
	grand.EndAt(start.Add(3 * time.Millisecond))
	child.Child("assemble", start.Add(3*time.Millisecond), start.Add(4*time.Millisecond))
	child.SetAttrs(Bool("coalesced", true))
	child.EndAt(start.Add(5 * time.Millisecond))
	root.End()

	recs := tr.Trace(root.Trace().String())
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Root != "POST /predict" || rec.Kept != "sample" {
		t.Fatalf("record %+v", rec)
	}
	if len(rec.Spans) != 4 {
		t.Fatalf("got %d spans, want 4: %+v", len(rec.Spans), rec.Spans)
	}
	byName := make(map[string]SpanView)
	for _, v := range rec.Spans {
		byName[v.Name] = v
	}
	eng := byName["engine"]
	if eng.ParentID == "" || eng.DurationMs != 5 {
		t.Fatalf("engine span %+v", eng)
	}
	if eng.Attrs["replica"] != int64(2) || eng.Attrs["coalesced"] != true {
		t.Fatalf("engine attrs %+v", eng.Attrs)
	}
	if byName["forward"].ParentID != eng.SpanID || byName["forward"].DurationMs != 2 {
		t.Fatalf("forward span %+v", byName["forward"])
	}
	if byName["assemble"].ParentID != eng.SpanID || byName["assemble"].DurationMs != 1 {
		t.Fatalf("assemble span %+v", byName["assemble"])
	}
	// Start-ordered: root first.
	if rec.Spans[0].Name != "POST /predict" || rec.Spans[0].ParentID != "" {
		t.Fatalf("spans not root-first: %+v", rec.Spans[0])
	}
}

func TestTailRetention(t *testing.T) {
	// SampleEvery large enough that ordinary traces are dropped with near
	// certainty; error and slow traces must survive regardless.
	tr := NewTracer(TracerConfig{Slow: 50 * time.Millisecond, SampleEvery: 1 << 60})

	_, fast := tr.StartRequest(context.Background(), "fast", "")
	fast.EndAt(fast.start.Add(time.Millisecond))

	_, slow := tr.StartRequest(context.Background(), "slow", "")
	slow.EndAt(slow.start.Add(time.Second))

	_, failed := tr.StartRequest(context.Background(), "failed", "")
	failed.SetError(errors.New("boom"))
	failed.EndAt(failed.start.Add(time.Millisecond))

	// An error on a child also retains the whole trace.
	_, childErr := tr.StartRequest(context.Background(), "child-err", "")
	c := childErr.StartChild("stage")
	c.SetError(errors.New("stage broke"))
	c.End()
	childErr.EndAt(childErr.start.Add(time.Millisecond))

	sums := tr.Traces(0, false, 0)
	if len(sums) != 3 {
		t.Fatalf("retained %d traces, want 3: %+v", len(sums), sums)
	}
	kept := make(map[string]string)
	for _, s := range sums {
		kept[s.Root] = s.Kept
	}
	if kept["slow"] != "slow" || kept["failed"] != "error" || kept["child-err"] != "error" {
		t.Fatalf("kept map %v", kept)
	}
	if _, ok := kept["fast"]; ok {
		t.Fatal("unremarkable trace retained despite sampling")
	}
	st := tr.Stats()
	if st.Started != 4 || st.Kept != 3 || st.SampledOut != 1 {
		t.Fatalf("stats %+v", st)
	}

	// Filters: min duration and error-only.
	if got := tr.Traces(500*time.Millisecond, false, 0); len(got) != 1 || got[0].Root != "slow" {
		t.Fatalf("minDur filter: %+v", got)
	}
	if got := tr.Traces(0, true, 0); len(got) != 2 {
		t.Fatalf("errOnly filter: %+v", got)
	}
	if got := tr.Traces(0, false, 1); len(got) != 1 {
		t.Fatalf("limit: %+v", got)
	}
}

func TestDeterministicSampling(t *testing.T) {
	// With SampleEvery=4 over many traces, roughly 1/4 survive, and the
	// decision is a pure function of the trace ID.
	tr := NewTracer(TracerConfig{SampleEvery: 4, Retain: 4096})
	const n = 1024
	for i := 0; i < n; i++ {
		_, root := tr.StartRequest(context.Background(), "r", "")
		root.EndAt(root.start.Add(time.Microsecond))
	}
	kept := int(tr.Stats().Kept)
	if kept < n/8 || kept > n/2 {
		t.Fatalf("kept %d of %d with SampleEvery=4", kept, n)
	}
	if int(tr.Stats().SampledOut)+kept != n {
		t.Fatalf("kept %d + sampledOut %d != %d", kept, tr.Stats().SampledOut, n)
	}
}

func TestRemoteParentContinuesTrace(t *testing.T) {
	tr := NewTracer(keepAll())
	up := FormatTraceparent(NewTraceID(), NewSpanID(), true)
	wantTrace, wantParent, _, _ := ParseTraceparent(up)

	_, root := tr.StartRequest(context.Background(), "downstream", up)
	if root.Trace() != wantTrace {
		t.Fatalf("trace not continued: %s vs %s", root.Trace(), wantTrace)
	}
	root.End()
	recs := tr.Trace(wantTrace.String())
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	v := recs[0].Spans[0]
	if !v.Remote || v.ParentID != wantParent.String() {
		t.Fatalf("root view %+v, want remote with parent %s", v, wantParent)
	}
}

func TestHeadSamplingPassThrough(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 1, HeadSample: 1 << 60})
	ctx, root := tr.StartRequest(context.Background(), "r", "")
	if root == nil || root.Recording() {
		t.Fatalf("head-sampled-out root should be a non-recording pass-through, got %v", root)
	}
	// IDs still propagate, with the sampled flag clear.
	tp := root.Traceparent()
	if _, _, sampled, ok := ParseTraceparent(tp); !ok || sampled {
		t.Fatalf("pass-through traceparent %q", tp)
	}
	if c := SpanFromContext(ctx).StartChild("x"); c != nil {
		t.Fatal("child of non-recording span should be nil")
	}
	root.End()
	if got := tr.Stats(); got.Started != 0 || got.Kept != 0 {
		t.Fatalf("pass-through counted: %+v", got)
	}

	// A remote parent bypasses head sampling: upstream already chose.
	up := FormatTraceparent(NewTraceID(), NewSpanID(), true)
	_, remote := tr.StartRequest(context.Background(), "r", up)
	if !remote.Recording() {
		t.Fatal("remote-parented root must record despite head sampling")
	}
	remote.End()
}

func TestMaxActiveOverflow(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 1, MaxActive: 2})
	_, a := tr.StartRequest(context.Background(), "a", "")
	_, b := tr.StartRequest(context.Background(), "b", "")
	_, c := tr.StartRequest(context.Background(), "c", "")
	if !a.Recording() || !b.Recording() {
		t.Fatal("under-limit roots must record")
	}
	if c.Recording() {
		t.Fatal("over-limit root must pass through")
	}
	if tr.Stats().Overflow != 1 {
		t.Fatalf("overflow=%d", tr.Stats().Overflow)
	}
	a.End()
	_, d := tr.StartRequest(context.Background(), "d", "")
	if !d.Recording() {
		t.Fatal("slot freed by a finished trace must be reusable")
	}
	b.End()
	c.End()
	d.End()
}

func TestMaxSpansBound(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 1, MaxSpans: 8})
	_, root := tr.StartRequest(context.Background(), "r", "")
	for i := 0; i < 20; i++ {
		root.Child(fmt.Sprintf("c%d", i), root.start, root.start.Add(time.Microsecond))
	}
	root.End()
	recs := tr.Trace(root.Trace().String())
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	// Root rides outside the per-trace buffer: 8 buffered children + root.
	if len(recs[0].Spans) != 9 {
		t.Fatalf("got %d spans, want 9", len(recs[0].Spans))
	}
	if recs[0].Dropped != 12 {
		t.Fatalf("dropped=%d, want 12", recs[0].Dropped)
	}
	if tr.Stats().SpansLost != 12 {
		t.Fatalf("spansLost=%d", tr.Stats().SpansLost)
	}
}

func TestRetainRingEviction(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 1, Retain: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		_, root := tr.StartRequest(context.Background(), fmt.Sprintf("r%d", i), "")
		ids = append(ids, root.Trace().String())
		root.End()
	}
	if got := tr.Trace(ids[0]); got != nil {
		t.Fatal("oldest trace should have been evicted")
	}
	sums := tr.Traces(0, false, 0)
	if len(sums) != 2 || sums[0].Root != "r2" || sums[1].Root != "r1" {
		t.Fatalf("ring %+v", sums)
	}
}

func TestLinkedJobRunsShareTrace(t *testing.T) {
	tr := NewTracer(keepAll())
	ctx, submit := tr.StartRequest(context.Background(), "POST /jobs", "")
	tp := SpanFromContext(ctx).Traceparent()
	submit.End()

	// Two job runs (original + resume) link under the submission's trace.
	run0 := tr.StartLinked("job.run", tp, Int("resumes", 0))
	run0.End()
	run1 := tr.StartLinked("job.run", tp, Int("resumes", 1))
	run1.End()

	recs := tr.Trace(submit.Trace().String())
	if len(recs) != 3 {
		t.Fatalf("got %d records on the trace, want 3", len(recs))
	}
	// Oldest first: the submission, then each run in order.
	if recs[0].Root != "POST /jobs" || recs[1].Root != "job.run" || recs[2].Root != "job.run" {
		t.Fatalf("records %+v", recs)
	}
	if recs[1].Spans[0].Attrs["resumes"] != int64(0) || recs[2].Spans[0].Attrs["resumes"] != int64(1) {
		t.Fatalf("resumes attrs: %+v / %+v", recs[1].Spans[0].Attrs, recs[2].Spans[0].Attrs)
	}
	// StartLinked with garbage starts a fresh trace rather than failing.
	fresh := tr.StartLinked("job.run", "not-a-traceparent")
	if fresh.Trace().IsZero() || fresh.Trace() == submit.Trace() {
		t.Fatalf("fresh linked trace %s", fresh.Trace())
	}
	fresh.End()
}

func TestConcurrentChildren(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 1, MaxSpans: 4096})
	_, root := tr.StartRequest(context.Background(), "r", "")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := root.StartChild(fmt.Sprintf("g%d", g))
				c.SetAttrs(Int("i", int64(i)))
				c.End()
			}
		}(g)
	}
	wg.Wait()
	root.End()
	recs := tr.Trace(root.Trace().String())
	if len(recs) != 1 || len(recs[0].Spans) != 401 {
		t.Fatalf("got %d records / %d spans, want 1 / 401", len(recs), len(recs[0].Spans))
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, span := tr.StartRequest(context.Background(), "r", "")
	if span != nil {
		t.Fatal("nil tracer must hand out a nil span")
	}
	if SpanFromContext(ctx) != nil {
		t.Fatal("nil span must not enter the context")
	}
	if tr.StartLinked("j", "") != nil {
		t.Fatal("nil tracer StartLinked")
	}
	if tr.Traces(0, false, 0) != nil || tr.Trace("x") != nil {
		t.Fatal("nil tracer queries")
	}
	tr.RegisterMetrics(nil)
	_ = tr.Stats()

	// Every span method must be a no-op on nil.
	span.SetAttrs(Int("k", 1))
	span.SetError(errors.New("x"))
	span.Child("c", time.Now(), time.Now())
	span.End()
	if span.Recording() || span.Traceparent() != "" || !span.Trace().IsZero() || !span.ID().IsZero() {
		t.Fatal("nil span accessors")
	}
	if c := span.StartChild("c"); c != nil {
		t.Fatal("nil span child")
	}
}

func TestEndIdempotent(t *testing.T) {
	tr := NewTracer(keepAll())
	_, root := tr.StartRequest(context.Background(), "r", "")
	root.End()
	root.End() // second end must not double-finalize
	if got := len(tr.Traces(0, false, 0)); got != 1 {
		t.Fatalf("retained %d, want 1", got)
	}
	if tr.Stats().Active != 0 {
		t.Fatalf("active=%d", tr.Stats().Active)
	}
}

func TestExemplars(t *testing.T) {
	var ex Exemplars
	if !ex.Slowest().Trace.IsZero() {
		t.Fatal("empty exemplars")
	}
	// Zero trace IDs (tracing off) must be free no-ops.
	ex.Observe(int64(time.Second), TraceID{})
	if !ex.Slowest().Trace.IsZero() {
		t.Fatal("zero-trace observation recorded")
	}
	a, b := NewTraceID(), NewTraceID()
	ex.Observe(int64(10*time.Millisecond), a)
	ex.Observe(int64(800*time.Millisecond), b)
	if got := ex.Slowest(); got.Trace != b || got.Value != int64(800*time.Millisecond) {
		t.Fatalf("slowest %+v", got)
	}
}
