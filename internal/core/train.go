package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"adarnet/internal/autodiff"
	"adarnet/internal/grid"
	"adarnet/internal/nn"
	"adarnet/internal/obs"
	"adarnet/internal/tensor"
)

// Training telemetry on the process registry: the step-time histogram is
// the training analogue of the serving stage histograms — a fattening tail
// means GC pressure or a pool miss storm, which the mean step time hides —
// and the loss gauges give a scrape-only view of convergence (adarnet-train
// -debug-addr exposes them live on /metrics).
var (
	trainStepSeconds = obs.Default.Histogram("adarnet_train_step_seconds",
		"Optimizer step time (forward, backward, and Adam update for one batch).", 1e-9)
	trainEpochs = obs.Default.Counter("adarnet_train_epochs_total",
		"Training epochs completed.")
	trainLossTotal = obs.Default.Gauge("adarnet_train_loss_total",
		"Mean total loss of the last completed epoch.")
	trainLossData = obs.Default.Gauge("adarnet_train_loss_data",
		"Mean data-loss component of the last completed epoch.")
	trainLossPDE = obs.Default.Gauge("adarnet_train_loss_pde",
		"Mean PDE-loss component of the last completed epoch.")
)

// Sample is one training example: the physical-units LR flow field and its
// grid metadata (spacing, viscosity, BCs). ADARNet's training never sees HR
// labels (paper §3.2).
type Sample struct {
	Input *tensor.Tensor // (1,H,W,4) physical units
	Meta  *grid.Flow     // grid metadata of the LR field
}

// TrainOptions drives Trainer.Run.
type TrainOptions struct {
	Epochs    int
	BatchSize int // gradient-accumulation batch (paper: 8)
	ClipNorm  float64
	Shuffle   bool
	Seed      int64
	// Monitor, when non-nil, receives per-epoch mean losses.
	Monitor func(epoch int, total, data, pde float64)
}

// DefaultTrainOptions mirrors the paper's setup (§4.2) at laptop scale.
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{Epochs: 10, BatchSize: 8, ClipNorm: 10, Shuffle: true, Seed: 1}
}

// EpochStats records the mean loss components of one epoch.
type EpochStats struct {
	Epoch int
	Total float64
	Data  float64
	PDE   float64
}

// Trainer optimizes a model with Adam on the hybrid loss.
type Trainer struct {
	Model *Model
	Opt   *nn.Adam
}

// NewTrainer builds a trainer with the model's configured learning rate.
func NewTrainer(m *Model) *Trainer {
	return &Trainer{Model: m, Opt: nn.NewAdam(m.Cfg.LR)}
}

// FitNormalization computes and installs dataset normalization statistics.
func (tr *Trainer) FitNormalization(samples []Sample) {
	inputs := make([]*tensor.Tensor, len(samples))
	for i, s := range samples {
		inputs[i] = s.Input
	}
	tr.Model.Norm = FitNorm(inputs)
}

// Step accumulates gradients over a batch and applies one Adam update.
// It returns the batch-mean loss components.
func (tr *Trainer) Step(batch []Sample) (total, data, pde float64, err error) {
	if len(batch) == 0 {
		return 0, 0, 0, fmt.Errorf("core: empty training batch")
	}
	defer trainStepSeconds.ObserveSince(time.Now())
	m := tr.Model
	params := m.Params()
	// Gradient accumulation: each sample gets its own tape; Param.Bind on a
	// fresh tape resets the node, so we accumulate into external buffers.
	accum := make(map[*nn.Param]*tensor.Tensor, len(params))
	for _, s := range batch {
		t := autodiff.NewTape()
		norm := m.Norm.Apply(s.Input)
		x := t.Const(norm)
		res := m.Forward(t, x)
		parts := m.Loss(t, res, norm, s.Meta)
		t.Backward(parts.Total)
		total += parts.Total.Data.Data()[0]
		data += parts.Data.Data.Data()[0]
		pde += parts.PDE.Data.Data()[0]
		for _, p := range params {
			if g := p.Grad(); g != nil {
				if a, ok := accum[p]; ok {
					a.AddInPlace(g)
				} else {
					accum[p] = tensor.ClonePooled(g)
				}
			}
		}
		// Return the sample's activations, gradients, and scratch to the pool
		// so the batch trains with a near-constant working set.
		t.Free()
		tensor.Recycle(norm)
	}
	inv := 1.0 / float64(len(batch))
	total *= inv
	data *= inv
	pde *= inv
	// Install averaged gradients through one synthetic tape so the existing
	// optimizer path (Param.Grad) sees them.
	t := autodiff.NewTape()
	for _, p := range params {
		v := p.Bind(t)
		if g, ok := accum[p]; ok {
			g.ScaleInPlace(inv)
			v.AccumGradOwned(g)
		}
	}
	tr.Opt.Step(params)
	t.Free()
	return total, data, pde, nil
}

// Fit trains for opts.Epochs over the samples and returns per-epoch stats.
// The loop polls ctx between batches; on cancellation it returns the stats
// of completed epochs together with the wrapped context error.
func (tr *Trainer) Fit(ctx context.Context, samples []Sample, opts TrainOptions) ([]EpochStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: no training samples")
	}
	if opts.Epochs <= 0 {
		opts.Epochs = 1
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 8
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	var stats []EpochStats
	for e := 0; e < opts.Epochs; e++ {
		if opts.Shuffle {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		var st EpochStats
		st.Epoch = e
		batches := 0
		for at := 0; at < len(order); at += opts.BatchSize {
			if err := ctx.Err(); err != nil {
				return stats, fmt.Errorf("core: training canceled in epoch %d: %w", e, err)
			}
			end := at + opts.BatchSize
			if end > len(order) {
				end = len(order)
			}
			batch := make([]Sample, 0, end-at)
			for _, idx := range order[at:end] {
				batch = append(batch, samples[idx])
			}
			total, data, pde, err := tr.Step(batch)
			if err != nil {
				return stats, err
			}
			st.Total += total
			st.Data += data
			st.PDE += pde
			batches++
		}
		st.Total /= float64(batches)
		st.Data /= float64(batches)
		st.PDE /= float64(batches)
		stats = append(stats, st)
		trainEpochs.Inc()
		trainLossTotal.Set(st.Total)
		trainLossData.Set(st.Data)
		trainLossPDE.Set(st.PDE)
		if opts.Monitor != nil {
			opts.Monitor(e, st.Total, st.Data, st.PDE)
		}
	}
	return stats, nil
}
