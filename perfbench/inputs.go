package main

import (
	"fmt"
	"math/rand"

	"adarnet/internal/geometry"
	"adarnet/internal/grid"
	"adarnet/internal/solver"
)

// Quick shape shared by every workload: LR 16×64, level cap 2, so the
// correction solve runs on the uniform 64×256 finest grid.
const (
	lrH      = 16
	lrW      = 64
	levelCap = 2

	// solverMaxIter is adarnet-serve's -solver-max-iter default and
	// adarnet-bench's quick-scale cap.
	solverMaxIter = 12000

	// reJitter is the relative Reynolds-number perturbation the seed draws
	// from: small enough that iteration counts, and so the cost of a pass,
	// stay those of the paper case (channel Re 2.5e3 ± 2% corrects in 2425
	// iterations throughout). The angle of attack is not perturbed: ±0.2°
	// moved the NACA0012 correction between 1325 and 1525 iterations.
	reJitter = 0.005
)

func solverOptions() solver.Options {
	o := solver.DefaultOptions()
	o.MaxIter = solverMaxIter
	return o
}

// jitter returns x·(1 + rel·u) for u uniform on [-1, 1).
func jitter(rng *rand.Rand, x, rel float64) float64 {
	return x * (1 + rel*(2*rng.Float64()-1))
}

// perturbedCase rebuilds paper case c at a seeded Reynolds number. The
// name carries it, so every case of a run is distinct and identifiable.
func perturbedCase(rng *rand.Rand, c *geometry.Case) *geometry.Case {
	out := *c
	out.Re = jitter(rng, c.Re, reJitter)
	out.Name = fmt.Sprintf("%s@Re%.6g", c.Name, out.Re)
	return &out
}

// paperCase returns the named paper evaluation case at the quick shape.
func paperCase(name string) *geometry.Case {
	for _, c := range geometry.PaperTestCases(lrH, lrW) {
		if c.Name == name {
			return c
		}
	}
	panic("perfbench: unknown paper case " + name)
}

// pipelineCaseNames is the pipeline workload's pass: one wall-bounded case
// and one immersed body.
var pipelineCaseNames = []string{"channel-Re2.5e+03", "naca0012-Re2.5e+04"}

func pipelineCases(seed int64) []*geometry.Case {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*geometry.Case, len(pipelineCaseNames))
	for i, n := range pipelineCaseNames {
		out[i] = perturbedCase(rng, paperCase(n))
	}
	return out
}

// perturbField returns a copy of f with every cell of every channel scaled
// by (1 + rel·u), u uniform on [-1, 1). A small rel keeps the field a
// near-solution, so the model's refinement map stays that of a real flow.
func perturbField(rng *rand.Rand, f *grid.Flow, rel float64) *grid.Flow {
	g := f.Clone()
	for _, ch := range []*grid.Field{g.U, g.V, g.P, g.Nut} {
		for i := range ch.Data {
			ch.Data[i] *= 1 + rel*(2*rng.Float64()-1)
		}
	}
	return g
}
