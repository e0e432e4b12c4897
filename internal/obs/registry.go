package obs

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry holds named metrics and renders them in Prometheus text
// exposition format (version 0.0.4). Binaries share Default; tests build
// private registries so their metrics never collide.
//
// Registration is get-or-create: asking for an existing name with the same
// kind returns the already-registered instrument (so two engines in one
// process share one set of serve metrics), while a kind conflict replaces
// the old entry — last writer wins, which keeps test setup trivial and is
// harmless for a process-internal registry.
type Registry struct {
	mu      sync.Mutex
	entries []*entry
	index   map[string]*entry
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// entry is one registered metric. Counters and gauges reduce to a value
// function; histograms keep the *Histogram so exposition can snapshot it.
// base/labels split a labeled name like `x_total{stage="infer"}`: base carries
// the metric family, labels the brace-less label pairs ("" when unlabeled).
type entry struct {
	name   string
	base   string
	labels string
	help   string
	kind   metricKind
	value  func() float64 // counter, gauge
	hist   *Histogram
	scale  float64 // histogram: recorded units → exported units (e.g. 1e-9 ns→s)
	inst   any     // the instrument handed out by get-or-create
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*entry)}
}

// Default is the process-wide registry. Package-level metrics across the
// repository register here at init; cmd binaries expose it on /metrics.
var Default = NewRegistry()

func init() {
	// expvar publication of the default registry: /debug/vars (or any expvar
	// consumer) sees every metric without scraping the Prometheus endpoint.
	expvar.Publish("adarnet", expvar.Func(func() any { return Default.expvarMap() }))
}

// validName enforces the Prometheus metric-name charset. A bad name is a
// programmer error, caught at registration rather than scrape time.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Labeled builds a labeled series name from a metric family and key/value
// pairs: Labeled("x_total", "stage", "infer") → `x_total{stage="infer"}`. Every
// registration function accepts such names; series sharing a family render
// under one HELP/TYPE header. Panics on an odd pair count — a programmer
// error, like an invalid name.
func Labeled(base string, kv ...string) string {
	if len(kv) == 0 {
		return base
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: Labeled(%q): odd key/value count %d", base, len(kv)))
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// splitLabels decomposes a registered name into its family and label pairs.
// ok=false rejects malformed names: the base must satisfy validName and a
// label suffix, when present, must be a brace-wrapped k="v" list with
// valid-name keys and values free of quotes, backslashes, and newlines
// (commas inside quoted values are fine).
func splitLabels(name string) (base, labels string, ok bool) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, "", validName(name)
	}
	base = name[:i]
	rest := name[i:]
	if !validName(base) || len(rest) < 2 || rest[len(rest)-1] != '}' {
		return "", "", false
	}
	labels = rest[1 : len(rest)-1]
	// Values may contain commas (e.g. cpu_features="avx2,fma"), so pairs
	// can't be split on "," — scan key="value" units, each value ending at
	// the next quote (quotes themselves are rejected inside values).
	for s := labels; ; {
		eq := strings.Index(s, `="`)
		if eq <= 0 || !validName(s[:eq]) {
			return "", "", false
		}
		val := s[eq+2:]
		q := strings.IndexByte(val, '"')
		if q < 0 || strings.ContainsAny(val[:q], "\\\n") {
			return "", "", false
		}
		s = val[q+1:]
		if s == "" {
			return base, labels, true
		}
		if s[0] != ',' || len(s) == 1 {
			return "", "", false
		}
		s = s[1:]
	}
}

// register get-or-creates an entry. make builds the entry only when needed.
func (r *Registry) register(name string, kind metricKind, make func() *entry) *entry {
	base, labels, ok := splitLabels(name)
	if !ok {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.index[name]; ok && e.kind == kind {
		return e
	}
	e := make()
	e.base, e.labels = base, labels
	if old, ok := r.index[name]; ok {
		// Kind conflict: replace in place, keeping exposition order stable.
		for i, x := range r.entries {
			if x == old {
				r.entries[i] = e
				break
			}
		}
	} else {
		r.entries = append(r.entries, e)
	}
	r.index[name] = e
	return e
}

// Counter registers (or returns the existing) counter under name.
func (r *Registry) Counter(name, help string) *Counter {
	e := r.register(name, kindCounter, func() *entry {
		c := &Counter{}
		return &entry{name: name, help: help, kind: kindCounter,
			value: func() float64 { return float64(c.Value()) }, inst: c}
	})
	return e.inst.(*Counter)
}

// CounterFunc registers a counter whose value is computed at scrape time —
// for counting state owned elsewhere (an Engine's atomic counters).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, kindCounter, func() *entry {
		return &entry{name: name, help: help, kind: kindCounter, value: fn, inst: fn}
	})
}

// Gauge registers (or returns the existing) gauge under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	e := r.register(name, kindGauge, func() *entry {
		g := &Gauge{}
		return &entry{name: name, help: help, kind: kindGauge, value: g.Value, inst: g}
	})
	return e.inst.(*Gauge)
}

// GaugeFunc registers a gauge read at scrape time (pool sizes, live bytes).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, kindGauge, func() *entry {
		return &entry{name: name, help: help, kind: kindGauge, value: fn, inst: fn}
	})
}

// Histogram registers (or returns the existing) histogram under name.
// scale converts recorded units to exported units — 1e-9 for histograms
// recording nanoseconds and exporting Prometheus-conventional seconds, 1
// for unitless distributions like batch occupancy.
func (r *Registry) Histogram(name, help string, scale float64) *Histogram {
	e := r.register(name, kindHistogram, func() *entry {
		h := &Histogram{}
		return &entry{name: name, help: help, kind: kindHistogram, hist: h, scale: scale, inst: h}
	})
	return e.inst.(*Histogram)
}

// AttachHistogram registers a histogram that lives elsewhere (an Engine's
// stage histograms) so exposition and the owner read the same buckets.
func (r *Registry) AttachHistogram(name, help string, scale float64, h *Histogram) {
	r.register(name, kindHistogram, func() *entry {
		return &entry{name: name, help: help, kind: kindHistogram, hist: h, scale: scale, inst: h}
	})
}

// snapshotEntries copies the entry list so exposition never holds the lock
// while formatting.
func (r *Registry) snapshotEntries() []*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*entry(nil), r.entries...)
}

// fmtFloat renders a sample value the way Prometheus clients do: shortest
// round-trip representation, integral values without an exponent.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteTo renders every registered metric in Prometheus text format. Metric
// families appear in first-registration order; labeled series of one family
// (e.g. per-stage job histograms) are grouped under a single HELP/TYPE
// header, in their own registration order, as the text format requires. It
// implements io.WriterTo.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	entries := r.snapshotEntries()
	var b strings.Builder
	emitted := make(map[string]bool, len(entries))
	for _, first := range entries {
		if emitted[first.base] {
			continue
		}
		emitted[first.base] = true
		if first.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", first.base, strings.ReplaceAll(first.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", first.base, first.kind)
		for _, e := range entries {
			if e.base != first.base {
				continue
			}
			switch e.kind {
			case kindCounter, kindGauge:
				fmt.Fprintf(&b, "%s %s\n", e.name, fmtFloat(e.value()))
			case kindHistogram:
				s := e.hist.Snapshot()
				var cum uint64
				for i, c := range s.Buckets {
					cum += c
					// le is the bucket's inclusive upper bound: recorded values
					// are integers, so that is the exclusive edge minus one.
					le := (BucketUpper(i) - 1) * e.scale
					fmt.Fprintf(&b, "%s %d\n", e.sampleName("_bucket", `le=`+strconv.Quote(fmtFloat(le))), cum)
				}
				fmt.Fprintf(&b, "%s %d\n", e.sampleName("_bucket", `le="+Inf"`), s.Count)
				fmt.Fprintf(&b, "%s %s\n", e.sampleName("_sum", ""), fmtFloat(float64(s.Sum)*e.scale))
				fmt.Fprintf(&b, "%s %d\n", e.sampleName("_count", ""), s.Count)
			}
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// sampleName builds a histogram sample line name: the family plus a suffix,
// with the entry's labels and any extra label (le) merged into one brace set.
func (e *entry) sampleName(suffix, extra string) string {
	name := e.base + suffix
	switch {
	case e.labels == "" && extra == "":
		return name
	case e.labels == "":
		return name + "{" + extra + "}"
	case extra == "":
		return name + "{" + e.labels + "}"
	default:
		return name + "{" + extra + "," + e.labels + "}"
	}
}

// Handler serves the registry as a Prometheus scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if _, err := r.WriteTo(w); err != nil {
			// The connection is gone; nothing useful to do.
			_ = err
		}
	})
}

// expvarMap renders the registry for expvar consumers: scalar metrics map to
// their value, histograms to {count, sum, p50, p95, p99} in exported units.
func (r *Registry) expvarMap() map[string]any {
	entries := r.snapshotEntries()
	m := make(map[string]any, len(entries))
	for _, e := range entries {
		switch e.kind {
		case kindCounter, kindGauge:
			m[e.name] = e.value()
		case kindHistogram:
			s := e.hist.Snapshot()
			m[e.name] = map[string]any{
				"count": s.Count,
				"sum":   float64(s.Sum) * e.scale,
				"p50":   s.Quantile(0.50) * e.scale,
				"p95":   s.Quantile(0.95) * e.scale,
				"p99":   s.Quantile(0.99) * e.scale,
			}
		}
	}
	return m
}

// Names returns the registered metric names, sorted, for tests and
// diagnostics.
func (r *Registry) Names() []string {
	entries := r.snapshotEntries()
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.name
	}
	sort.Strings(names)
	return names
}
