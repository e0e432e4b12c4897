package serve

// Health is a point-in-time readiness report, JSON-shaped for /healthz.
type Health struct {
	// Ready is true while the engine accepts requests; false once Close
	// has begun.
	Ready bool `json:"ready"`
	// Panics is the engine's lifetime contained-panic count.
	Panics uint64 `json:"panics"`
	// QueueLen is the current submission-queue depth.
	QueueLen int `json:"queue_len"`
	// P99E2EMs is the observed p99 submit→reply latency in milliseconds.
	P99E2EMs float64 `json:"p99_e2e_ms"`
}

// Health reports the engine's readiness and the load and fault signals an
// operator checks first.
func (e *Engine) Health() Health {
	e.mu.RLock()
	closed := e.closed
	e.mu.RUnlock()
	return Health{
		Ready:    !closed,
		Panics:   e.stats.panics.Load(),
		QueueLen: len(e.queue),
		P99E2EMs: e.stats.e2e.Snapshot().Quantile(0.99) / 1e6,
	}
}
