// Command adarnet-serve exposes the batched inference engine over HTTP: a
// stdlib net/http server with JSON in/out, so many clients can request
// predictions concurrently and share forward-pass batches.
//
// Endpoints:
//
//	POST /predict  {"case":"cylinder","re":1e5,"h":16,"w":64}
//	               → refinement map, composite cells, timing
//	GET  /healthz  readiness: engine health JSON; 503 once the engine is
//	               closed
//	GET  /stats    engine counters (requests, batches, occupancy, latency
//	               means and p50/p95/p99 tails, contained panics, cache
//	               hit/miss/evicted/bytes when -cache-bytes is set)
//	GET  /metrics  Prometheus text exposition: engine stage histograms,
//	               HTTP latency, tensor-pool gauges, process counters
//
// With -jobs-dir set, the async end-to-end solve API is served too (see
// DESIGN.md §14 and the README's "Long-running solves"):
//
//	POST   /jobs              accept a full LR-solve → infer → correct job,
//	                          journaled before the 202 so it survives a crash
//	GET    /jobs              list all known jobs
//	GET    /jobs/{id}         state, stage, residual history (?tail=N)
//	GET    /jobs/{id}/events  live progress stream (server-sent events)
//	DELETE /jobs/{id}         cancel (pending: immediate; running: via ctx)
//
// Every request carries an ID (generated, or adopted from a well-formed
// X-Request-Id header), echoed in the response header, stamped on each
// structured log line (-log-format text|json), and retained in an
// in-process last-N-request trace ring. With -debug-addr set, a second
// listener exposes /debug/pprof, /debug/vars, /debug/requests (the ring),
// and /metrics — kept off the serving port so profiling can never be
// reached from the traffic-facing address by accident.
//
// The boundary is hardened: request bodies are size-capped and rejected on
// unknown fields, grid dimensions are bounded (h, w ≤ -max-dim, tiled by the
// model's patch size) so a hostile request cannot trigger multi-GB
// allocations, every request carries a server-side deadline, and a panic in
// a forward pass surfaces as HTTP 500 on that request alone — the engine
// retries its batch-mates and the listener keeps serving (see
// internal/serve and DESIGN.md §9–§10).
//
// Usage:
//
//	adarnet-serve -model model.gob -addr :8080 -max-batch 8 -workers 4 \
//	              -log-format json -debug-addr localhost:6060
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"time"

	"adarnet/internal/core"
	"adarnet/internal/jobs"
	"adarnet/internal/obs"
	"adarnet/internal/serve"
	"adarnet/internal/solver"
	"adarnet/internal/tensor"
	"adarnet/internal/tensor/cpu"
)

func main() {
	model := flag.String("model", "", "checkpoint path (required)")
	addr := flag.String("addr", ":8080", "listen address")
	patch := flag.Int("patch", 4, "patch size the checkpoint was trained with")
	bins := flag.Int("bins", 4, "number of target resolutions")
	maxBatch := flag.Int("max-batch", 8, "batch flush size")
	maxDelay := flag.Duration("max-delay", 2*time.Millisecond, "partial-batch flush deadline")
	workers := flag.Int("workers", 2, "forward-pass workers")
	queueDepth := flag.Int("queue-depth", 64, "submission queue bound")
	solverIter := flag.Int("solver-max-iter", 12000, "LR-solve iteration cap per request")
	precision := flag.String("precision", "float64", "inference numeric path: float64 (bit-exact default) | float32 (fused fast path)")
	gemmKernel := flag.String("gemm-kernel", "auto", "float32 GEMM micro-kernel: auto (best for this CPU) | avx2 | neon | generic (scalar fallback)")
	cacheBytes := flag.Int64("cache-bytes", 0, "content-addressed prediction-cache byte budget; 0 disables the cache")
	cacheNegTTL := flag.Duration("cache-negative-ttl", 10*time.Second, "lifetime of negative (diverged-solve) cache entries; 0 disables negative caching")
	maxDim := flag.Int("max-dim", 256, "largest accepted grid dimension (h or w)")
	maxBody := flag.Int64("max-body", 1<<20, "request-body byte cap")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request deadline (0 disables)")
	readHeaderTimeout := flag.Duration("read-header-timeout", 5*time.Second, "HTTP header read deadline")
	readTimeout := flag.Duration("read-timeout", 10*time.Second, "HTTP request read deadline")
	writeTimeout := flag.Duration("write-timeout", 60*time.Second, "HTTP response write deadline (keep > request-timeout)")
	idleTimeout := flag.Duration("idle-timeout", 120*time.Second, "keep-alive idle deadline")
	jobsDir := flag.String("jobs-dir", "", "journal directory for the async /jobs API; empty disables it")
	jobWorkers := flag.Int("job-workers", 1, "concurrent end-to-end solve jobs")
	jobQueue := flag.Int("job-queue-depth", 64, "accepted-but-unfinished job bound")
	jobCkptEvery := flag.Int("job-checkpoint-every", 2000, "solver iterations between mid-solve job checkpoints")
	logFormat := flag.String("log-format", "text", "structured log format: text | json")
	debugAddr := flag.String("debug-addr", "", "diagnostics listen address (pprof, /debug/requests, /debug/traces, /metrics); empty disables")
	traceRequests := flag.Int("trace-requests", 128, "completed requests retained in the in-process trace ring")
	traceSample := flag.Int("trace-sample", 16, "span tracing: keep 1 in N ordinary traces (every error and slow trace is always kept); 0 disables span tracing")
	traceSlow := flag.Duration("trace-slow", 250*time.Millisecond, "span tracing: traces at least this long are always retained")
	traceRetain := flag.Int("trace-retain", 256, "finished traces retained for /debug/traces")
	flag.Parse()

	logger, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adarnet-serve:", err)
		os.Exit(2)
	}
	if *model == "" {
		fmt.Fprintln(os.Stderr, "adarnet-serve: -model is required (train one with adarnet-train)")
		os.Exit(2)
	}
	// Fail fast on a misconfiguration that otherwise only surfaces as
	// mysteriously aborted responses under load: the connection's write
	// deadline firing before the handler's request deadline.
	if err := validateTimeouts(*writeTimeout, *reqTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "adarnet-serve:", err)
		os.Exit(2)
	}
	// Kernel selection must precede engine construction: the float32 fast
	// path pre-packs frozen weights in the selected kernel's panel layout
	// at model-freeze time, and a PackedMat32 keeps its packing kernel for
	// life.
	kernel, err := tensor.SetGemm32Kernel(*gemmKernel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adarnet-serve:", err)
		os.Exit(2)
	}

	cfg := core.DefaultConfig(*patch, *patch)
	cfg.Bins = *bins
	m := core.New(cfg)
	if err := m.Load(*model); err != nil {
		if errors.Is(err, core.ErrCheckpointCorrupt) {
			logger.Error("checkpoint failed integrity checks (re-train or restore a backup)", "err", err.Error())
		} else {
			logger.Error("checkpoint load failed", "err", err.Error())
		}
		os.Exit(1)
	}

	var prec serve.Precision
	switch *precision {
	case "float64":
		prec = serve.Float64
	case "float32":
		prec = serve.Float32
	default:
		fmt.Fprintf(os.Stderr, "adarnet-serve: unknown -precision %q (float64 | float32)\n", *precision)
		os.Exit(2)
	}

	obs.RegisterBuildInfo(obs.Default, *precision, kernel, cpu.Summary())

	// A nil tracer turns every span call into a no-op: -trace-sample 0 keeps
	// the serving path free of tracing work entirely.
	var tracer *obs.Tracer
	if *traceSample > 0 {
		tracer = obs.NewTracer(obs.TracerConfig{
			Slow:        *traceSlow,
			SampleEvery: *traceSample,
			Retain:      *traceRetain,
		})
		tracer.RegisterMetrics(obs.Default)
	}

	sopt := solver.DefaultOptions()
	sopt.MaxIter = *solverIter
	engine, err := serve.New(m,
		serve.WithPrecision(prec),
		serve.WithMaxBatch(*maxBatch),
		serve.WithMaxDelay(*maxDelay),
		serve.WithWorkers(*workers),
		serve.WithQueueDepth(*queueDepth),
		serve.WithSolverOptions(sopt),
		serve.WithCache(*cacheBytes),
		serve.WithNegativeTTL(*cacheNegTTL),
		serve.WithMetrics(obs.Default),
		serve.WithLogger(logger),
	)
	if err != nil {
		logger.Error("engine start failed", "err", err.Error())
		os.Exit(1)
	}

	var jobSvc *jobs.Service
	if *jobsDir != "" {
		jobSvc, err = jobs.Open(jobs.Config{
			Dir:             *jobsDir,
			Model:           m,
			Workers:         *jobWorkers,
			QueueDepth:      *jobQueue,
			Solver:          sopt,
			CheckpointEvery: *jobCkptEvery,
			Logger:          logger,
			Metrics:         obs.Default,
			Tracer:          tracer,
		})
		if err != nil {
			logger.Error("job service start failed", "err", err.Error())
			os.Exit(1)
		}
		logger.Info("job service up", "dir", *jobsDir, "workers", *jobWorkers)
	}

	ring := obs.NewTraceRing(*traceRequests)
	mux := newMux(engine, serverConfig{
		maxDim:         *maxDim,
		patchTile:      *patch,
		maxBody:        *maxBody,
		requestTimeout: *reqTimeout,
		logger:         logger,
		ring:           ring,
		tracer:         tracer,
		jobs:           jobSvc,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
		ErrorLog:          slog.NewLogLogger(logger.Handler(), slog.LevelError),
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// ListenAndServe returns ErrServerClosed as soon as Shutdown begins, so
	// main must wait for this goroutine or the process exits before the
	// drain completes and the summary below is ever logged.
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
		if jobSvc != nil {
			// Graceful drain: running jobs get the same shutdown window to
			// finish; past it they are interrupted at a checkpoint and the
			// next start resumes them from the journal — nothing is lost.
			jobSvc.Close(shutdownCtx)
		}
		// Snapshot before Close: closing purges the cache, zeroing the
		// resident-bytes gauge the summary reports.
		st := engine.Stats()
		engine.Close()
		logger.Info("cache summary",
			"enabled", *cacheBytes > 0,
			"hits", st.CacheHits, "misses", st.CacheMisses,
			"negative_hits", st.CacheNegativeHits,
			"evicted", st.CacheEvicted, "bytes", st.CacheBytes)
	}()

	if *debugAddr != "" {
		// The debug listener gets no write timeout: a 30 s CPU profile or an
		// execution trace legitimately streams for that long.
		dbg := &http.Server{
			Addr:              *debugAddr,
			Handler:           obs.DebugMux(obs.Default, ring, tracer),
			ReadHeaderTimeout: 5 * time.Second,
			ErrorLog:          slog.NewLogLogger(logger.Handler(), slog.LevelError),
		}
		go func() {
			logger.Info("debug listener up", "addr", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "err", err.Error())
			}
		}()
		defer dbg.Close()
	}

	logger.Info("listening", "addr", *addr, "params", m.ParamCount(),
		"max_batch", *maxBatch, "workers", *workers, "precision", prec.String(),
		"gemm_kernel", kernel, "cpu_features", cpu.Summary(),
		"cache_bytes", *cacheBytes, "log_format", *logFormat)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("listener failed", "err", err.Error())
		os.Exit(1)
	}
	<-shutdownDone
}

// newLogger builds the process logger for -log-format. Both handlers write
// to stderr so stdout stays clean for tooling.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (text | json)", format)
	}
}
