package serve

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"adarnet/internal/core"
	"adarnet/internal/grid"
	"adarnet/internal/tensor"
)

// testModel builds a small untrained (but deterministic) model whose
// normalization is fitted to the given flows — enough for inference tests,
// which care about numerical identity, not accuracy.
func testModel(flows []*grid.Flow) *core.Model {
	cfg := core.DefaultConfig(2, 2)
	cfg.Bins = 2
	cfg.Seed = 7
	m := core.New(cfg)
	inputs := make([]*tensor.Tensor, len(flows))
	for i, f := range flows {
		inputs[i] = grid.ToTensor(f)
	}
	m.Norm = core.FitNorm(inputs)
	return m
}

// testFlows builds n deterministic pseudo-random LR fields of shape h×w.
func testFlows(n, h, w int) []*grid.Flow {
	rng := rand.New(rand.NewSource(42))
	flows := make([]*grid.Flow, n)
	for i := range flows {
		f := grid.NewFlow(h, w, 0.1, 0.1)
		f.UIn, f.Nu, f.NutIn = 1, 1e-3, 3e-3
		for k := 0; k < h*w; k++ {
			f.U.Data[k] = 1 + 0.3*rng.Float64()
			f.V.Data[k] = 0.1 * (rng.Float64() - 0.5)
			f.P.Data[k] = 0.5 * rng.Float64()
			f.Nut.Data[k] = 3e-3 * rng.Float64()
		}
		flows[i] = f
	}
	return flows
}

// TestBatchedMatchesDirect checks the acceptance criterion: Engine.Predict
// output is bit-identical to direct core.Model inference, for a single
// caller and for N concurrent callers whose requests share batches.
func TestBatchedMatchesDirect(t *testing.T) {
	for _, callers := range []int{1, 3, 8} {
		flows := testFlows(callers, 8, 16)
		m := testModel(flows)

		// Direct single-request inference is the reference.
		want := make([]*core.Inference, callers)
		for i, f := range flows {
			want[i] = m.Infer(f)
		}

		e, err := New(m, WithMaxBatch(4), WithMaxDelay(10*time.Millisecond), WithWorkers(2))
		if err != nil {
			t.Fatalf("callers=%d: New: %v", callers, err)
		}
		got := make([]*core.Inference, callers)
		errs := make([]error, callers)
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], errs[i] = e.PredictFlow(context.Background(), flows[i])
			}(i)
		}
		wg.Wait()
		if err := e.Close(); err != nil {
			t.Fatalf("callers=%d: Close: %v", callers, err)
		}

		for i := 0; i < callers; i++ {
			if errs[i] != nil {
				t.Fatalf("callers=%d: request %d: %v", callers, i, errs[i])
			}
			w, g := want[i], got[i]
			if w.CompositeCells != g.CompositeCells {
				t.Errorf("callers=%d req %d: composite cells %d != %d", callers, i, g.CompositeCells, w.CompositeCells)
			}
			for k, lvl := range w.Levels.Level {
				if g.Levels.Level[k] != lvl {
					t.Fatalf("callers=%d req %d: level[%d] = %d, want %d", callers, i, k, g.Levels.Level[k], lvl)
				}
			}
			wd, gd := w.Field.Data(), g.Field.Data()
			if len(wd) != len(gd) {
				t.Fatalf("callers=%d req %d: field size %d != %d", callers, i, len(gd), len(wd))
			}
			for k := range wd {
				if wd[k] != gd[k] { // bit-identical, not approximately equal
					t.Fatalf("callers=%d req %d: field[%d] = %v, want %v", callers, i, k, gd[k], wd[k])
				}
			}
		}
		if s := e.Stats(); s.Completed != uint64(callers) {
			t.Errorf("callers=%d: stats completed = %d", callers, s.Completed)
		}
	}
}

// TestBatchOccupancy checks that concurrent requests actually share batches
// rather than degenerating into one batch per request.
func TestBatchOccupancy(t *testing.T) {
	const callers = 8
	flows := testFlows(callers, 8, 16)
	m := testModel(flows)
	e, err := New(m, WithMaxBatch(callers), WithMaxDelay(50*time.Millisecond), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := e.PredictFlow(context.Background(), flows[i]); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if s := e.Stats(); s.MeanBatchOccupancy < 2 {
		t.Errorf("mean batch occupancy %.2f; want >= 2 with %d concurrent callers", s.MeanBatchOccupancy, callers)
	}
}

// TestCancellation checks that a dead context unblocks the caller with the
// context error, both before submission and while queued, and that the
// engine's goroutines exit on Close (no leaks).
func TestCancellation(t *testing.T) {
	flows := testFlows(1, 8, 16)
	m := testModel(flows)

	before := runtime.NumGoroutine()
	e, err := New(m, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}

	// Pre-canceled context: rejected before entering the queue.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.PredictFlow(ctx, flows[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled submit: err = %v, want context.Canceled", err)
	}

	// Canceled while held in the pipeline: the worker must drop the request
	// and the caller must return promptly with the context error.
	e.hold = make(chan struct{})
	ctx2, cancel2 := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, err := e.PredictFlow(ctx2, flows[0])
		got <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the request reach the pipeline
	cancel2()
	select {
	case err := <-got:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-pipeline cancel: err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled caller did not unblock")
	}
	close(e.hold) // release the worker so Close can drain

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// The batcher and workers must be gone.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+1 { // +1 slack for runtime noise
		t.Errorf("goroutines: %d before engine, %d after Close", before, n)
	}
}

// TestQueueSaturation fills the pipeline with the workers held and checks
// that excess submissions shed with ErrQueueFull while absorbed ones
// complete once the workers resume.
func TestQueueSaturation(t *testing.T) {
	const submissions = 8
	flows := testFlows(submissions, 8, 16)
	m := testModel(flows)
	e, err := New(m, WithMaxBatch(1), WithWorkers(1), WithQueueDepth(1), WithMaxDelay(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	e.hold = make(chan struct{}) // block the worker before each batch

	// Pipeline capacity with the worker held: 1 batch at the worker, 1 batch
	// blocked in the batcher's handoff, 1 request in the queue — at most 3
	// absorbed; the rest must be rejected.
	errs := make(chan error, submissions)
	var wg sync.WaitGroup
	for i := 0; i < submissions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := e.PredictFlow(context.Background(), flows[i])
			errs <- err
		}(i)
		time.Sleep(5 * time.Millisecond) // let each submission settle
	}
	close(e.hold) // release the worker; absorbed requests complete
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	close(errs)

	full, ok := 0, 0
	for err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrQueueFull):
			full++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if full < submissions-3 {
		t.Errorf("queue-full rejections: %d of %d, want >= %d", full, submissions, submissions-3)
	}
	if ok == 0 {
		t.Error("no absorbed request completed")
	}
	if s := e.Stats(); s.Rejected != uint64(full) {
		t.Errorf("stats rejected = %d, want %d", s.Rejected, full)
	}
}

// TestCoalescing checks single-flight deduplication: concurrent requests
// carrying bitwise-identical fields (distinct Flow allocations) share one
// forward pass, every caller gets an independent result, and the results are
// bit-identical to direct inference.
func TestCoalescing(t *testing.T) {
	const callers = 4
	base := testFlows(1, 8, 16)
	m := testModel(base)
	want := m.Infer(base[0])

	// Same values, distinct allocations: coalescing must match on content.
	flows := make([]*grid.Flow, callers)
	for i := range flows {
		flows[i] = base[0].Clone()
	}

	e, err := New(m, WithMaxBatch(callers), WithMaxDelay(50*time.Millisecond), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*core.Inference, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			inf, err := e.PredictFlow(context.Background(), flows[i])
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			got[i] = inf
		}(i)
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	wd := want.Field.Data()
	for i, g := range got {
		if g == nil {
			continue // already reported
		}
		if g.CompositeCells != want.CompositeCells {
			t.Errorf("request %d: composite cells %d != %d", i, g.CompositeCells, want.CompositeCells)
		}
		for k, lvl := range want.Levels.Level {
			if g.Levels.Level[k] != lvl {
				t.Fatalf("request %d: level[%d] = %d, want %d", i, k, g.Levels.Level[k], lvl)
			}
		}
		for k, v := range g.Field.Data() {
			if v != wd[k] {
				t.Fatalf("request %d: field[%d] = %v, want %v", i, k, v, wd[k])
			}
		}
		// Results must be independent copies, not one shared Inference.
		for j := 0; j < i; j++ {
			if got[j] != nil && (got[j] == g || &got[j].Field.Data()[0] == &g.Field.Data()[0]) {
				t.Fatalf("requests %d and %d share a result", j, i)
			}
		}
	}
	if s := e.Stats(); s.Coalesced == 0 {
		t.Error("no requests coalesced despite identical fields in one batch")
	}
}

// TestEngineClosed checks Close semantics: idempotent, Health turns not
// ready, and subsequent submissions fail with ErrEngineClosed.
func TestEngineClosed(t *testing.T) {
	flows := testFlows(1, 8, 16)
	m := testModel(flows)
	e, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Health().Ready {
		t.Fatal("open engine reports not ready")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if e.Health().Ready {
		t.Fatal("closed engine reports ready")
	}
	if _, err := e.PredictFlow(context.Background(), flows[0]); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("submit after Close: err = %v, want ErrEngineClosed", err)
	}
}

// TestUntrained checks the ErrUntrained sentinel on construction.
func TestUntrained(t *testing.T) {
	if _, err := New(nil); !errors.Is(err, core.ErrUntrained) {
		t.Fatalf("New(nil): err = %v, want core.ErrUntrained", err)
	}
}
