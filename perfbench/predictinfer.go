package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"adarnet/internal/core"
	"adarnet/internal/geometry"
	"adarnet/internal/grid"
	"adarnet/internal/obs"
	"adarnet/internal/serve"
	"adarnet/internal/solver"
	"adarnet/perfbench/artifact"
)

// predict-infer serves pre-solved LR fields through serve.Engine.PredictFlow
// at float32 with the prediction cache on: an open loop at a fixed mean
// rate (regular bursts, seeded jitter) from one generator. A minority of requests
// repeat a Zipf-popular hot set; the rest are unique. No solver runs in the
// measured window.
const (
	// inferRate is the mean request rate. A batch of 2 takes ~50 ms on
	// 2 vCPUs and up to 2.5× that when the host slows; at 8 req/s even
	// then a burst is cleared before the next, so latency follows the
	// forward pass instead of a queue that builds only on slow hosts.
	inferRate = 8.0
	// inferBurst is the number of requests the generator sends at each
	// arrival instant, and inferJitter the largest seeded delay of an
	// instant, as a fraction of the interval between instants.
	inferBurst  = 2
	inferJitter = 0.2
	// inferRepeat is the probability that a request repeats a hot field.
	inferRepeat = 0.2
	inferHot    = 32  // hot-set size
	inferZipfS  = 1.1 // Zipf exponent of hot-set popularity
	// inferPerturb is the relative per-cell perturbation that derives a
	// distinct request field from a solved paper case.
	inferPerturb = 1e-3
	// inferCacheBytes holds about 16 cached inferences at 16×64 / level
	// cap 2 (≈0.56 MB each) — below the 32-field hot set.
	inferCacheBytes = 12 << 20
	// inferLimit is the goodput latency limit of one PredictFlow.
	inferLimit = 250 * time.Millisecond
)

type inferReq struct {
	due    time.Duration // scheduled send, from the window start
	field  int           // index into fields
	repeat bool          // the field was requested before in this schedule
}

type predictInfer struct {
	model  *core.Model
	eng    *serve.Engine
	fields []*grid.Flow
	reqs   []inferReq
}

// engineDefaults are adarnet-serve's engine defaults: max-batch 8,
// max-delay 2 ms, 2 workers, queue 64, solver max-iter 12000.
func engineDefaults() []serve.Option {
	return []serve.Option{
		serve.WithMaxBatch(8),
		serve.WithMaxDelay(2 * time.Millisecond),
		serve.WithWorkers(2),
		serve.WithQueueDepth(64),
		serve.WithSolverOptions(solverOptions()),
		serve.WithLevelCap(levelCap),
	}
}

// presolve solves every paper case once at the quick shape on two
// goroutines, the even-numbered cases on one and the odd-numbered on the
// other. A fixed split keeps the set-up's length from depending on which
// goroutine happens to finish a solve first, as it would if they shared a
// queue.
func presolve() ([]*grid.Flow, error) {
	cases := geometry.PaperTestCases(lrH, lrW)
	flows := make([]*grid.Flow, len(cases))
	errs := make([]error, len(cases))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(cases); i += 2 {
				f := cases[i].Build()
				if _, err := solver.Solve(context.Background(), f, solverOptions()); err != nil {
					errs[i] = fmt.Errorf("pre-solve %s: %w", cases[i].Name, err)
				}
				flows[i] = f
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return flows, nil
}

// inferSchedule draws the arrival schedule and request fields for a window:
// a burst of inferBurst requests every inferBurst/inferRate seconds, each
// burst sent a seeded fraction (up to inferJitter) of the interval late.
// Regular bursts let batches form while one burst is cleared before the
// next, so the latencies measure the engine rather than chance overlaps of
// random arrivals. Fields 0..inferHot-1 are the hot set; every unique
// request gets a field of its own, derived from the solved cases in turn so
// every seed has the same case mix.
func inferSchedule(seed int64, base []*grid.Flow, window time.Duration) ([]*grid.Flow, []inferReq) {
	rng := rand.New(rand.NewSource(seed))
	fields := make([]*grid.Flow, inferHot)
	for i := range fields {
		fields[i] = perturbField(rng, base[i%len(base)], inferPerturb)
	}
	bursts := int(inferRate * window.Seconds() / inferBurst)
	interval := window / time.Duration(bursts)
	due := make([]time.Duration, bursts)
	for i := range due {
		due[i] = time.Duration(i)*interval + time.Duration(inferJitter*rng.Float64()*float64(interval))
	}
	n := bursts * inferBurst
	zipf := rand.NewZipf(rng, inferZipfS, 1, inferHot-1)
	seen := make([]bool, inferHot)
	reqs := make([]inferReq, n)
	unique := 0
	for i := range reqs {
		r := inferReq{due: due[i/inferBurst]}
		if rng.Float64() < inferRepeat {
			r.field = int(zipf.Uint64())
			r.repeat = seen[r.field]
			seen[r.field] = true
		} else {
			r.field = len(fields)
			fields = append(fields, perturbField(rng, base[unique%len(base)], inferPerturb))
			unique++
		}
		reqs[i] = r
	}
	return fields, reqs
}

func setupPredictInfer(opt options) (instance, error) {
	m, _, err := artifact.Load(filepath.Join(opt.dir, "model"))
	if err != nil {
		return nil, err
	}
	eng, err := serve.New(m, append(engineDefaults(),
		serve.WithPrecision(serve.Float32), serve.WithCache(inferCacheBytes))...)
	if err != nil {
		return nil, err
	}
	base, err := presolve()
	if err != nil {
		eng.Close()
		return nil, err
	}
	fields, reqs := inferSchedule(opt.seed, base, time.Duration(opt.seconds*float64(time.Second)))
	// Warm-up: one inference of an unsolved field, which the window never
	// requests again.
	if _, err := eng.PredictFlow(context.Background(), paperCase("channel-Re2.5e+03").Build()); err != nil {
		eng.Close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return &predictInfer{model: m, eng: eng, fields: fields, reqs: reqs}, nil
}

func (p *predictInfer) close() { p.eng.Close() }

type inferResp struct {
	lat       time.Duration // from the scheduled send
	late      time.Duration // how late the generator sent it
	hash      uint64
	composite int
	fine      int
	meanLevel float64
	levels    []int
	err       error
}

func (p *predictInfer) run(window time.Duration, tr *tracer) (*measurement, error) {
	m := newMeasurement()
	// Traced, every request carries a recording span of the program's own
	// tracer, so a solver call inside the engine shows as an lr_solve child.
	var otr *obs.Tracer
	if tr != nil {
		otr = obs.NewTracer(obs.TracerConfig{SampleEvery: 1, Retain: len(p.reqs)})
	}
	s0 := p.eng.Stats()
	resps := make([]inferResp, len(p.reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, r := range p.reqs {
		due := start.Add(r.due)
		time.Sleep(time.Until(due))
		sent := time.Now()
		wg.Add(1)
		go func(i int, r inferReq) {
			defer wg.Done()
			ctx, sp := otr.StartRequest(context.Background(), "perfbench.predict-flow", "")
			inf, err := p.eng.PredictFlow(ctx, p.fields[r.field])
			end := time.Now()
			sp.EndAt(end)
			tr.add(i+1, 0, "serve.predict-flow", "serve", sent, end)
			resps[i] = inferResp{lat: end.Sub(due), late: sent.Sub(due), err: err}
			if err == nil {
				resps[i].hash = hashInference(inf)
				resps[i].composite = inf.CompositeCells
				resps[i].fine = inf.Field.Dim(1) * inf.Field.Dim(2)
				resps[i].meanLevel = inf.Levels.MeanLevel()
				resps[i].levels = inf.Levels.Level
			}
		}(i, r)
	}
	wg.Wait()
	m.elapsed = time.Since(start) // to the last response
	if tr != nil {
		serveMetrics(m.layer, s0, p.eng.Stats())
		m.layer["solver.calls"] = float64(lrSolveSpans(otr))
	}
	// The references are computed after the window's counters are read.
	m.check = func() error {
		fm, err := core.NewModel32(p.model)
		if err != nil {
			return err
		}
		p.score(m, resps, func(f *grid.Flow) uint64 { return hashInference(fm.InferFlowCap(f, levelCap)) })
		return nil
	}
	return m, nil
}

// lrSolveSpans counts the lr_solve spans — the engine's record of a solver
// call — in the traces otr retained.
func lrSolveSpans(otr *obs.Tracer) int {
	n := 0
	for _, t := range otr.Traces(0, false, 0) {
		for _, rec := range otr.Trace(t.TraceID) {
			for _, sp := range rec.Spans {
				if sp.Name == "lr_solve" {
					n++
				}
			}
		}
	}
	return n
}

// serveMetrics reads the serve layer's counters over a window from two
// Engine.Stats snapshots. Counters are differenced; the stage tails come
// from the engine's cumulative histograms, which only the set-up warm-up
// precedes.
func serveMetrics(l map[string]float64, s0, s1 serve.EngineStats) {
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	l["serve.queue_wait_p50_ms"] = ms(s1.QueueWaitTail.P50)
	l["serve.queue_wait_p99_ms"] = ms(s1.QueueWaitTail.P99)
	l["serve.forward_p50_ms"] = ms(s1.ForwardTail.P50)
	l["serve.forward_p99_ms"] = ms(s1.ForwardTail.P99)
	l["serve.assemble_p50_ms"] = ms(s1.AssembleTail.P50)
	l["serve.batch_occupancy"] = s1.MeanBatchOccupancy
	l["serve.batches"] = float64(s1.Batches - s0.Batches)
	l["serve.cache_hit_ratio"] = ratio(s1.CacheHits-s0.CacheHits, s1.CacheMisses-s0.CacheMisses)
	l["serve.cache_hit_p50_us"] = float64(s1.CacheHitTail.P50) / 1e3
	l["serve.cache_evicted"] = float64(s1.CacheEvicted - s0.CacheEvicted)
	l["serve.rejected"] = float64(s1.Rejected - s0.Rejected)
}

// score checks every response against a single-request
// Model32.InferFlowCap reference (ref), computed once per distinct field,
// and records the window's latencies.
func (p *predictInfer) score(m *measurement, resps []inferResp, ref func(*grid.Flow) uint64) {
	refs := map[int]uint64{}
	late := make([]float64, 0, len(resps))
	var repeats, composite, fine int
	var infer time.Duration
	var meanLevel float64
	var levels [][]int
	for i, r := range p.reqs {
		m.attempted++
		resp := resps[i]
		late = append(late, resp.late.Seconds())
		if r.repeat {
			repeats++
		}
		if resp.err != nil {
			m.fail(fmt.Sprintf("request %d: %v", i, resp.err))
			continue
		}
		want, ok := refs[r.field]
		if !ok {
			want = ref(p.fields[r.field])
			refs[r.field] = want
		}
		if resp.hash != want {
			m.fail(fmt.Sprintf("request %d (field %d) differs from its InferFlowCap reference", i, r.field))
			continue
		}
		m.lat = append(m.lat, resp.lat.Seconds())
		if resp.lat <= inferLimit {
			m.good++
		}
		m.outputs[fmt.Sprint("request-", i)] = resp.hash
		infer += resp.lat - resp.late
		composite += resp.composite
		fine += resp.fine
		meanLevel += resp.meanLevel
		levels = append(levels, resp.levels)
	}
	l := m.layer
	l["load.late_p99_ms"] = 1e3 * quantile(late, 0.99)
	l["serve.repeat_share"] = float64(repeats) / float64(len(p.reqs))
	if n := float64(len(m.lat)); n > 0 {
		l["core.infer_s"] = infer.Seconds() / n
		l["core.composite_cells"] = float64(composite) / n
		l["core.fine_cells"] = float64(fine) / n
		l["core.mean_level"] = meanLevel / n
		l["core.map_hash"] = float64(hashLevels(levels))
	}
}

// stress flags any solver call in the window: solver.calls counts the
// engine's lr_solve spans of the traced run.
func (p *predictInfer) stress(_ layerTimes, layer map[string]float64) []string {
	if n := layer["solver.calls"]; n > 0 {
		return []string{fmt.Sprintf("predict-infer: %.0f solver calls in the window", n)}
	}
	return nil
}
