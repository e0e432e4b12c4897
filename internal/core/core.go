// Package core implements ADARNet, the paper's primary contribution: a
// scorer–ranker–decoder deep network that performs non-uniform
// super-resolution of RANS flow fields (§3), trained semi-supervised with a
// hybrid data + PDE-residual loss (Eq. 1), and coupled end-to-end with the
// physics solver so its one-shot adaptive refinement reaches the same
// convergence guarantees as an iterative AMR solver (§3.3).
package core

import (
	"errors"
	"fmt"
	"math/rand"

	"adarnet/internal/grid"
	"adarnet/internal/nn"
	"adarnet/internal/patch"
	"adarnet/internal/tensor"
)

// ErrUntrained reports that an inference entry point was handed a nil model
// or one with no parameters. Callers match it with errors.Is.
var ErrUntrained = errors.New("model is nil or has no parameters")

// ErrCheckpointCorrupt re-exports nn's checkpoint-integrity sentinel so
// Model.Load callers can branch on "the file is damaged" (re-fetch or fall
// back to an older checkpoint) without importing internal/nn.
var ErrCheckpointCorrupt = nn.ErrCheckpointCorrupt

// Config collects ADARNet's architecture and training hyperparameters. The
// defaults mirror the paper (§4.2) scaled by the LR grid the model is built
// for: 16×16 patches, b = 4 bins, λ = 0.03, Adam at 1e-4.
type Config struct {
	// PatchH, PatchW are the patch dimensions in LR cells.
	PatchH, PatchW int
	// Bins is the number of target resolutions (bin k refines 2^k per side).
	Bins int
	// Lambda balances the PDE-residual term against the data term.
	Lambda float64
	// LR is the Adam learning rate.
	LR float64
	// Seed makes weight initialization reproducible.
	Seed int64
	// ScorerPool selects max-pool (paper) or average-pool aggregation of the
	// latent image into patch scores; average is used only in ablation.
	ScorerAvgPool bool
}

// DefaultConfig returns the paper's configuration for a patch size.
func DefaultConfig(ph, pw int) Config {
	return Config{PatchH: ph, PatchW: pw, Bins: 4, Lambda: 0.03, LR: 1e-4, Seed: 1}
}

// Normalization holds per-channel min/max used to scale flow variables to
// [0,1] for training stability (§5.1) and back to physical units for the
// PDE residual.
type Normalization struct {
	Min, Max [grid.NumChannels]float64
}

// IdentityNorm performs no scaling.
func IdentityNorm() Normalization {
	var n Normalization
	for c := range n.Min {
		n.Min[c], n.Max[c] = 0, 1
	}
	return n
}

// FitNorm computes per-channel min/max over a set of (1,H,W,4) samples.
func FitNorm(samples []*tensor.Tensor) Normalization {
	var n Normalization
	for c := range n.Min {
		n.Min[c] = 1e300
		n.Max[c] = -1e300
	}
	for _, s := range samples {
		d := s.Data()
		for p := 0; p < len(d); p += grid.NumChannels {
			for c := 0; c < grid.NumChannels; c++ {
				v := d[p+c]
				if v < n.Min[c] {
					n.Min[c] = v
				}
				if v > n.Max[c] {
					n.Max[c] = v
				}
			}
		}
	}
	for c := range n.Min {
		if n.Max[c]-n.Min[c] < 1e-12 {
			n.Max[c] = n.Min[c] + 1
		}
	}
	return n
}

// Apply scales a physical (1,H,W,4) tensor into [0,1] per channel.
func (n Normalization) Apply(t *tensor.Tensor) *tensor.Tensor {
	out := t.Clone()
	d := out.Data()
	for p := 0; p < len(d); p += grid.NumChannels {
		for c := 0; c < grid.NumChannels; c++ {
			d[p+c] = (d[p+c] - n.Min[c]) / (n.Max[c] - n.Min[c])
		}
	}
	return out
}

// Invert maps a normalized tensor back to physical units.
func (n Normalization) Invert(t *tensor.Tensor) *tensor.Tensor {
	out := t.Clone()
	d := out.Data()
	for p := 0; p < len(d); p += grid.NumChannels {
		for c := 0; c < grid.NumChannels; c++ {
			d[p+c] = d[p+c]*(n.Max[c]-n.Min[c]) + n.Min[c]
		}
	}
	return out
}

// AffineCoeffs returns the (scale, shift) per channel that Invert applies,
// for use in the differentiable de-normalization op.
func (n Normalization) AffineCoeffs() (scale, shift []float64) {
	scale = make([]float64, grid.NumChannels)
	shift = make([]float64, grid.NumChannels)
	for c := 0; c < grid.NumChannels; c++ {
		scale[c] = n.Max[c] - n.Min[c]
		shift[c] = n.Min[c]
	}
	return
}

// Model is a trained (or trainable) ADARNet instance.
type Model struct {
	Cfg     Config
	Scorer  *Scorer
	Decoder *Decoder
	Norm    Normalization
}

// New builds an untrained model with Glorot-initialized weights.
func New(cfg Config) *Model {
	if cfg.Bins <= 0 {
		cfg.Bins = 4
	}
	if cfg.Bins > patch.MaxLevel+1 {
		cfg.Bins = patch.MaxLevel + 1
	}
	if cfg.Lambda == 0 {
		cfg.Lambda = 0.03
	}
	if cfg.LR == 0 {
		cfg.LR = 1e-4
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &Model{
		Cfg:     cfg,
		Scorer:  NewScorer(rng, cfg),
		Decoder: NewDecoder(rng),
		Norm:    IdentityNorm(),
	}
}

// Params returns every trainable parameter.
func (m *Model) Params() []*nn.Param {
	return append(m.Scorer.Params(), m.Decoder.Params()...)
}

// ParamCount returns the total learnable-parameter count.
func (m *Model) ParamCount() int { return nn.CountParams(m.Params()) }

// checkpointParams is what Save writes and Load restores: the trainable
// weights plus the fitted normalisation as two untrained entries. The
// normalisation entries alias m.Norm, so Load restores it in place, and a
// checkpoint that predates them leaves m.Norm as it was.
func (m *Model) checkpointParams() []*nn.Param {
	return append(m.Params(),
		nn.NewParam("norm.min", tensor.FromSlice(m.Norm.Min[:], grid.NumChannels)),
		nn.NewParam("norm.max", tensor.FromSlice(m.Norm.Max[:], grid.NumChannels)))
}

// Save checkpoints the model weights and normalisation to path. The write
// is atomic (temp file + fsync + rename), so a crash mid-save never
// destroys a previous checkpoint at the same path.
func (m *Model) Save(path string) error { return nn.SaveFile(path, m.checkpointParams()) }

// Load restores weights, and the normalisation when the checkpoint carries
// one, from path. Damaged files fail with a wrapped ErrCheckpointCorrupt.
func (m *Model) Load(path string) error {
	n, err := nn.LoadFile(path, m.checkpointParams())
	if err != nil {
		return fmt.Errorf("core: load %s: %w", path, err)
	}
	if n == 0 {
		return fmt.Errorf("core: checkpoint %s restored no parameters", path)
	}
	return nil
}
