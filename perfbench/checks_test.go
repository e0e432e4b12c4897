package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adarnet/internal/core"
	"adarnet/internal/geometry"
	"adarnet/internal/grid"
	"adarnet/internal/obs"
	"adarnet/internal/patch"
	"adarnet/internal/solver"
	"adarnet/perfbench/artifact"
)

// Each correctness check of the benchmark must be able to fail: these
// tests hand every check a bad output and expect it to be caught.

func fakeResult(c *geometry.Case) *core.E2EResult {
	f := c.BuildAt(4*lrH, 4*lrW)
	for i := range f.U.Data {
		f.U.Data[i] = 1
	}
	levels := patch.NewMap(lrH, lrW, 4, 4)
	for i := range levels.Level {
		levels.Level[i] = i % 3
	}
	return &core.E2EResult{
		Case:      c,
		Flow:      f,
		PSResult:  solver.Result{Converged: true},
		Inference: &core.Inference{Levels: levels},
	}
}

func goldenFor(c *geometry.Case, res *core.E2EResult) *golden {
	return &golden{CfX: goldenCfX, CfRelTol: 0.05, Cases: []goldenCase{goldenCaseOf(c, res, goldenCfX)}}
}

func TestPipelineChecksFail(t *testing.T) {
	c := paperCase("channel-Re2.5e+03")
	ok := fakeResult(c)
	p := &pipeline{golden: goldenFor(c, ok)}
	if err := p.check(c, ok); err != nil {
		t.Fatalf("unmodified result rejected: %v", err)
	}

	notConverged := fakeResult(c)
	notConverged.PSResult.Converged = false
	nonFinite := fakeResult(c)
	nonFinite.Flow.P.Data[7] = math.NaN()
	wrongCf := fakeResult(c)
	for i := range wrongCf.Flow.U.Data {
		wrongCf.Flow.U.Data[i] = 1.2 // C_f scales with the first-cell velocity
	}
	onePatch := fakeResult(c)
	onePatch.Inference.Levels.Level[5] = (onePatch.Inference.Levels.Level[5] + 1) % 3
	for name, res := range map[string]*core.E2EResult{
		"not converged": notConverged, "non-finite": nonFinite, "C_f": wrongCf, "one patch": onePatch,
	} {
		if err := p.check(c, res); err == nil {
			t.Errorf("%s: check passed a bad result", name)
		}
	}

	other := paperCase("naca0012-Re2.5e+04")
	if err := p.check(other, fakeResult(other)); err == nil {
		t.Error("a case without a golden record passed")
	}
}

// The committed golden file must hold the default seed's pipeline cases.
func TestGoldenCoversDefaultSeed(t *testing.T) {
	g, err := loadGolden(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range pipelineCases(defaultSeed) {
		found := false
		for _, gc := range g.Cases {
			found = found || gc.Name == c.Name
		}
		if !found {
			t.Errorf("golden.json has no record for %s", c.Name)
		}
	}
}

func TestPredictInferReferenceMismatchFails(t *testing.T) {
	f := paperCase("channel-Re2.5e+03").Build()
	p := &predictInfer{fields: []*grid.Flow{f}, reqs: []inferReq{{field: 0}, {field: 0, repeat: true}}}
	ref := func(*grid.Flow) uint64 { return 42 }
	m := newMeasurement()
	p.score(m, []inferResp{{hash: 42}, {hash: 42}}, ref)
	if m.failed != 0 {
		t.Fatalf("matching responses failed: %v", m.failures)
	}
	m = newMeasurement()
	p.score(m, []inferResp{{hash: 42}, {hash: 43}}, ref)
	if m.failed != 1 {
		t.Errorf("mismatching response: failed %d, want 1", m.failed)
	}
}

func TestTracedOutputMustMatchUntraced(t *testing.T) {
	a, b := newMeasurement(), newMeasurement()
	a.outputs["x"], b.outputs["x"] = 1, 1
	if err := compareOutputs(a, b); err != nil {
		t.Fatal(err)
	}
	b.outputs["x"] = 2
	if err := compareOutputs(a, b); err == nil {
		t.Error("differing traced output passed")
	}
}

func TestArtifactHashCheckFails(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{artifact.WeightsFile, artifact.NormFile, artifact.ManifestFile} {
		b, err := os.ReadFile(filepath.Join("model", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := artifact.Load(dir); err != nil {
		t.Fatalf("intact artifact rejected: %v", err)
	}
	norm := filepath.Join(dir, artifact.NormFile)
	b, _ := os.ReadFile(norm)
	if err := os.WriteFile(norm, append(b, ' '), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := artifact.Load(dir); err == nil || !strings.Contains(err.Error(), "sha256") {
		t.Errorf("tampered artifact: err = %v, want a hash mismatch", err)
	}
}

func TestStressFlags(t *testing.T) {
	lt := layerTimes{self: map[string]time.Duration{"solver": 80, "core": 20}, opTime: 100}
	if len((&pipeline{}).stress(lt, nil)) == 0 {
		t.Error("pipeline at 80% solver was not flagged")
	}
	lt.self["solver"] = 95
	if len((&pipeline{}).stress(lt, nil)) != 0 {
		t.Error("pipeline at 95% solver was flagged")
	}
}

// A solver call the engine makes under a request's recording span leaves an
// lr_solve child; predict-infer's stress check must count it and flag it.
func TestPredictInferSolverCallFlagged(t *testing.T) {
	otr := obs.NewTracer(obs.TracerConfig{SampleEvery: 1})
	_, sp := otr.StartRequest(context.Background(), "perfbench.predict-flow", "")
	sp.StartChild("forward").End()
	sp.End()
	if n := lrSolveSpans(otr); n != 0 {
		t.Fatalf("lr_solve spans = %d in a trace without one", n)
	}
	if len((&predictInfer{}).stress(layerTimes{}, map[string]float64{"solver.calls": 0})) != 0 {
		t.Error("predict-infer without solver calls was flagged")
	}

	_, sp = otr.StartRequest(context.Background(), "perfbench.predict-flow", "")
	sp.StartChild("lr_solve").End()
	sp.End()
	n := lrSolveSpans(otr)
	if n != 1 {
		t.Fatalf("lr_solve spans = %d, want 1", n)
	}
	if len((&predictInfer{}).stress(layerTimes{}, map[string]float64{"solver.calls": float64(n)})) == 0 {
		t.Error("a solver call in predict-infer was not flagged")
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	t0 := tr.t0
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.reserve()
	tr.add(1, root, "a", "solver", at(0), at(60))
	tr.add(1, root, "b", "core", at(50), at(80)) // overlaps a by 10 ms
	tr.finish(root, 1, 0, "op", "client", at(0), at(100))
	lt := tr.selfTimes()
	if lt.opTime != 100*time.Millisecond || lt.self["client"] != 20*time.Millisecond {
		t.Errorf("op time %v, client self %v; want 100ms, 20ms", lt.opTime, lt.self["client"])
	}
}

// BENCHMARK.json must name exactly the metrics the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	match := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, benchmark %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	match("end_to_end", spec.EndToEnd, endToEndMetrics)
	match("per_layer", spec.PerLayer, perLayerMetrics)
}
