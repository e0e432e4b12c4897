package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"

	"adarnet/internal/core"
	"adarnet/internal/geometry"
	"adarnet/internal/grid"
	"adarnet/internal/metrics"
)

// hashFlow is an FNV-1a hash over the bits of all four channels, so equal
// hashes mean bit-identical fields (up to a 2^-64 collision).
func hashFlow(f *grid.Flow) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, ch := range f.Fields() {
		for _, v := range ch.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// hashInference hashes an inference's refinement map and field bits.
func hashInference(inf *core.Inference) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, l := range inf.Levels.Level {
		binary.LittleEndian.PutUint64(b[:], uint64(l))
		h.Write(b[:])
	}
	for _, d := range inf.Field.Shape() {
		binary.LittleEndian.PutUint64(b[:], uint64(d))
		h.Write(b[:])
	}
	for _, v := range inf.Field.Data() {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// hashLevels is a 32-bit FNV-1a hash over refinement maps, small enough to
// travel exactly as a JSON number.
func hashLevels(maps [][]int) uint32 {
	h := fnv.New32a()
	for _, levels := range maps {
		for _, l := range levels {
			h.Write([]byte{byte(l)})
		}
		h.Write([]byte{0xff})
	}
	return h.Sum32()
}

// fluidCells counts the non-solid cells of f, the per-iteration cell count
// solver.Result.Work is made of.
func fluidCells(f *grid.Flow) int {
	n := f.H * f.W
	for _, s := range f.Mask {
		if s {
			n--
		}
	}
	return n
}

// goldenFile pins the pipeline's physics on the default seed.
const goldenFile = "golden.json"

// golden holds the default seed's refinement maps, which a correct run
// reproduces exactly, and its skin-friction coefficients, with the
// tolerance that admits the spread between PoissonSweeps 30 and 60
// (README.md).
type golden struct {
	Seed int64 `json:"seed"`
	// CfX is the station, as a fraction of the domain length, of C_f.
	CfX float64 `json:"cf_x"`
	// CfRelTol is the largest relative C_f deviation accepted.
	CfRelTol float64      `json:"cf_rel_tol"`
	Cases    []goldenCase `json:"cases"`
}

type goldenCase struct {
	Name    string   `json:"name"`
	MapHash uint32   `json:"map_hash"`
	Levels  []int    `json:"levels"`
	Cf      *float64 `json:"cf,omitempty"` // wall-bounded cases only
}

func loadGolden(path string) (*golden, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &g, nil
}

func wallBounded(c *geometry.Case) bool {
	return c.Kind == geometry.Channel || c.Kind == geometry.FlatPlate
}

// goldenCaseOf derives a case's golden record from a finished run.
func goldenCaseOf(c *geometry.Case, res *core.E2EResult, cfX float64) goldenCase {
	levels := append([]int(nil), res.Inference.Levels.Level...)
	gc := goldenCase{Name: c.Name, MapHash: hashLevels([][]int{levels}), Levels: levels}
	if wallBounded(c) {
		cf := metrics.SkinFriction(res.Flow, cfX)
		gc.Cf = &cf
	}
	return gc
}

func (g *golden) check(c *geometry.Case, res *core.E2EResult) error {
	var want *goldenCase
	for i := range g.Cases {
		if g.Cases[i].Name == c.Name {
			want = &g.Cases[i]
		}
	}
	if want == nil {
		return fmt.Errorf("%s: no golden record", c.Name)
	}
	got := goldenCaseOf(c, res, g.CfX)
	if got.MapHash != want.MapHash {
		if len(got.Levels) != len(want.Levels) {
			return fmt.Errorf("%s: refinement map has %d patches, golden %d", c.Name, len(got.Levels), len(want.Levels))
		}
		differ := 0
		for i := range got.Levels {
			if got.Levels[i] != want.Levels[i] {
				differ++
			}
		}
		return fmt.Errorf("%s: refinement map differs from golden on %d of %d patches", c.Name, differ, len(got.Levels))
	}
	if want.Cf != nil {
		if got.Cf == nil {
			return fmt.Errorf("%s: no C_f for a wall-bounded case", c.Name)
		}
		if rel := math.Abs(*got.Cf-*want.Cf) / math.Abs(*want.Cf); !(rel <= g.CfRelTol) {
			return fmt.Errorf("%s: C_f at %.2fL is %.6g, golden %.6g (rel. deviation %.3g > %.3g)",
				c.Name, g.CfX, *got.Cf, *want.Cf, rel, g.CfRelTol)
		}
	}
	return nil
}
