package main

import (
	"fmt"
	"io"
	"runtime/debug"
	"sort"
	"time"

	"adarnet/internal/tensor"
)

type metricDef struct{ name, unit string }

// endToEndMetrics are reported by every untraced run of every workload. An
// operation is the workload's unit of user-visible work: one end-to-end
// case (pipeline) or one PredictFlow request timed from its scheduled send
// (predict-infer). BENCHMARK.json
// lists the same names with their bounds.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"goodput_rps", "1/s"},
}

// layers are the modules whose self time the traced run reports as a share
// of operation time.
var layers = []string{"solver", "core", "serve"}

// perLayerMetrics are reported by the traced run (-trace 1). A layer a
// workload does not exercise reads 0.
var perLayerMetrics = []metricDef{
	{"solver.lr_s", "s"},
	{"solver.lr_iters", "count"},
	{"solver.correct_s", "s"},
	{"solver.correct_iters", "count"},
	{"solver.work_mcells", "Mcells"},
	{"solver.ns_per_cell_iter", "ns"},
	{"solver.calls", "count"},
	{"solver.monitor_checks", "count"},
	{"solver.limit_cycles", "count"},
	{"solver.diverged", "count"},
	{"solver.share_pct", "%"},
	{"core.infer_s", "s"},
	{"core.composite_cells", "count"},
	{"core.fine_cells", "count"},
	{"core.composite_work_mcells", "Mcells"},
	{"core.mean_level", "level"},
	{"core.map_hash", "hash"},
	{"core.share_pct", "%"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.queue_wait_p99_ms", "ms"},
	{"serve.forward_p50_ms", "ms"},
	{"serve.forward_p99_ms", "ms"},
	{"serve.assemble_p50_ms", "ms"},
	{"serve.batch_occupancy", "req/batch"},
	{"serve.batches", "count"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_hit_p50_us", "us"},
	{"serve.cache_evicted", "count"},
	{"serve.repeat_share", "ratio"},
	{"serve.rejected", "count"},
	{"serve.share_pct", "%"},
	{"tensor.pool_hit_ratio", "ratio"},
	{"tensor.pool32_hit_ratio", "ratio"},
	{"grid.build_ms", "ms"},
	{"go.alloc_mb_per_op", "MB/op"},
	{"go.gc_cpu_pct", "%"},
	{"go.mem_peak_mb", "MB"},
	{"load.late_p99_ms", "ms"},
	{"stress.flags", "count"},
	{"trace.overhead.latency_p50_ms", "ms"},
	{"trace.overhead.latency_p90_ms", "ms"},
	{"trace.overhead.throughput_rps", "1/s"},
	{"trace.overhead.goodput_rps", "1/s"},
}

func unitsOf(defs []metricDef) map[string]string {
	u := make(map[string]string, len(defs))
	for _, d := range defs {
		u[d.name] = d.unit
	}
	return u
}

// measurement is one measured window of a workload.
type measurement struct {
	// lat holds the latency in seconds of every operation that returned a
	// response; good counts those that passed their checks within the
	// workload's latency limit.
	lat       []float64
	good      int
	attempted int
	failed    int
	elapsed   time.Duration
	// outputs maps an operation key to a hash of its output, so a traced
	// window can be checked against the untraced one.
	outputs  map[string]uint64
	failures []string
	// check, when set, checks the window's outputs. measure calls it after
	// reading the window's counters, so the benchmark's own reference work
	// is not counted as the program's.
	check func() error

	e2e   map[string]float64
	layer map[string]float64
}

func newMeasurement() *measurement {
	return &measurement{outputs: map[string]uint64{}, layer: map[string]float64{}}
}

// fail counts one failed operation and keeps the first few reasons.
func (m *measurement) fail(reason string) {
	m.failed++
	if len(m.failures) < 5 {
		m.failures = append(m.failures, reason)
	}
}

func (m *measurement) log(w io.Writer, label string) {
	fmt.Fprintf(w, "%s: %d operations in %.3fs, %d failed, latency samples %d\n",
		label, m.attempted, m.elapsed.Seconds(), m.failed, len(m.lat))
	for _, f := range m.failures {
		fmt.Fprintln(w, "  failure:", f)
	}
	keys := make([]string, 0, len(m.e2e))
	for k := range m.e2e {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %s %.6g\n", k, m.e2e[k])
	}
	if late, ok := m.layer["load.late_p99_ms"]; ok {
		fmt.Fprintf(w, "  generator sent p99 %.3g ms late\n", late)
	}
}

// compareOutputs reports the first operation whose output hash differs
// between two windows over the same inputs.
func compareOutputs(a, b *measurement) error {
	keys := make([]string, 0, len(a.outputs))
	for k := range a.outputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if h, ok := b.outputs[k]; ok && h != a.outputs[k] {
			return fmt.Errorf("traced output of %s differs from the untraced one", k)
		}
	}
	return nil
}

// measure runs one window of inst and derives the end-to-end metrics and
// the process-wide layer counters (Go runtime, tensor pools) from it.
func measure(inst instance, window time.Duration, tr *tracer) (*measurement, error) {
	// Start every window from a collected heap with free pages returned, so
	// the memory figure is the window's own rather than set-up's high water.
	debug.FreeOSMemory()
	g0 := readGoCounters()
	h0, mi0 := tensor.PoolHitMiss()
	h320, mi320 := tensor.PoolHitMiss32()
	mem := startMemSampler(5 * time.Millisecond)
	m, err := inst.run(window, tr)
	memMB := mem.Stop()
	if err != nil {
		return nil, err
	}
	g1 := readGoCounters()
	h1, mi1 := tensor.PoolHitMiss()
	h321, mi321 := tensor.PoolHitMiss32()
	if m.check != nil {
		if err := m.check(); err != nil {
			return nil, err
		}
	}

	secs := m.elapsed.Seconds()
	m.e2e = map[string]float64{
		"latency_p50_ms": 1e3 * quantile(m.lat, 0.50),
		"latency_p90_ms": 1e3 * quantile(m.lat, 0.90),
		"throughput_rps": float64(m.attempted-m.failed) / secs,
		"goodput_rps":    float64(m.good) / secs,
	}
	m.layer["go.mem_peak_mb"] = memMB
	if m.attempted > 0 {
		m.layer["go.alloc_mb_per_op"] = float64(g1.allocBytes-g0.allocBytes) / (1 << 20) / float64(m.attempted)
	}
	if cpu := g1.totalCPU - g0.totalCPU; cpu > 0 {
		m.layer["go.gc_cpu_pct"] = 100 * (g1.gcCPU - g0.gcCPU) / cpu
	}
	m.layer["tensor.pool_hit_ratio"] = ratio(h1-h0, mi1-mi0)
	m.layer["tensor.pool32_hit_ratio"] = ratio(h321-h320, mi321-mi320)
	return m, nil
}

// ratio is hits/(hits+misses), 0 when there were no lookups.
func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
