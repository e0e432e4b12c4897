package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// TraceEntry is one completed request in the trace ring. TraceID and
// CacheHit cross-link the flat ring into the span tracer: grep the ring
// for a status, then pull the full timeline from /debug/traces/{trace_id}.
type TraceEntry struct {
	ID       string        `json:"id"`
	TraceID  string        `json:"trace_id,omitempty"`
	Route    string        `json:"route"`
	Status   int           `json:"status"`
	Start    time.Time     `json:"start"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	CacheHit bool          `json:"cache_hit"`
	Err      string        `json:"err,omitempty"`
}

// RequestNote is a per-request scratchpad the serving layers fill in as a
// request descends — today, whether the cache answered — and the HTTP
// boundary reads back when stamping the trace ring. A nil *RequestNote is a
// valid no-op receiver.
type RequestNote struct {
	cacheHit atomic.Bool
}

// SetCacheHit records that the prediction cache answered the request.
func (n *RequestNote) SetCacheHit() {
	if n == nil {
		return
	}
	n.cacheHit.Store(true)
}

// CacheHit reports whether the cache answered.
func (n *RequestNote) CacheHit() bool { return n != nil && n.cacheHit.Load() }

// noteKey is the private context key for the request note.
type noteKey struct{}

// WithRequestNote attaches a fresh note to ctx and returns both.
func WithRequestNote(ctx context.Context) (context.Context, *RequestNote) {
	n := &RequestNote{}
	return context.WithValue(ctx, noteKey{}, n), n
}

// RequestNoteFrom returns the note carried by ctx, or nil.
func RequestNoteFrom(ctx context.Context) *RequestNote {
	if ctx == nil {
		return nil
	}
	n, _ := ctx.Value(noteKey{}).(*RequestNote)
	return n
}

// TraceRing retains the last N completed requests in memory — enough to
// answer "what just happened" on a box with no log pipeline, without
// unbounded growth. It is safe for concurrent use; a nil *TraceRing is a
// valid no-op receiver so callers never have to branch on whether tracing
// is enabled.
type TraceRing struct {
	mu      sync.Mutex
	entries []TraceEntry
	next    int  // index of the slot the next Add writes
	full    bool // the ring has wrapped at least once
}

// NewTraceRing returns a ring retaining the last n entries (n < 1 → 1).
func NewTraceRing(n int) *TraceRing {
	if n < 1 {
		n = 1
	}
	return &TraceRing{entries: make([]TraceEntry, n)}
}

// Add records a completed request, evicting the oldest when full.
func (r *TraceRing) Add(e TraceEntry) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.entries[r.next] = e
	r.next++
	if r.next == len(r.entries) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Snapshot returns the retained entries, newest first. A nil ring returns
// nil.
func (r *TraceRing) Snapshot() []TraceEntry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.entries)
	}
	out := make([]TraceEntry, 0, n)
	for i := 1; i <= n; i++ {
		// Walk backwards from the slot most recently written.
		out = append(out, r.entries[(r.next-i+len(r.entries))%len(r.entries)])
	}
	return out
}

// Len reports how many entries the ring currently retains.
func (r *TraceRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.entries)
	}
	return r.next
}
