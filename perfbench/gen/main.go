// Command gen trains the benchmark's frozen ADARNet artifact: quick shape
// (LR 16×64, 4×4 patches, 3 bins), fixed seeds, the same corpus and
// optimizer recipe as adarnet-bench -scale quick. It writes the weights
// checkpoint, the fitted normalisation (core.Model.Save drops Model.Norm),
// and a manifest with the SHA-256 of both files, which the benchmark
// verifies before it loads the model.
//
//	cd perfbench && go run ./gen -out model
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"adarnet/internal/core"
	"adarnet/internal/dataset"
	"adarnet/internal/solver"
	"adarnet/perfbench/artifact"
)

func main() {
	out := flag.String("out", "model", "output directory")
	flag.Parse()
	if err := run(*out); err != nil {
		log.Fatal(err)
	}
}

func run(out string) error {
	spec := artifact.QuickSpec()
	start := time.Now()

	sopt := solver.DefaultOptions()
	sopt.MaxIter = spec.SolverMaxIter
	dopt := dataset.DefaultOptions(spec.PerFamily, spec.LRH, spec.LRW)
	dopt.Solver = sopt
	samples, err := dataset.Generate(context.Background(), dopt)
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	train, _ := dataset.Split(samples, 0.2)

	cfg := core.DefaultConfig(spec.PatchH, spec.PatchW)
	cfg.Bins = spec.Bins
	cfg.Seed = spec.Seed
	m := core.New(cfg)
	tr := core.NewTrainer(m)
	tr.Opt.LR = spec.LearningRate
	tr.FitNormalization(train)
	topt := core.DefaultTrainOptions()
	topt.Epochs = spec.Epochs
	topt.BatchSize = spec.BatchSize
	topt.Seed = spec.Seed
	if _, err := tr.Fit(context.Background(), train, topt); err != nil {
		return fmt.Errorf("train: %w", err)
	}

	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	if err := m.Save(filepath.Join(out, artifact.WeightsFile)); err != nil {
		return err
	}
	if err := artifact.WriteNorm(filepath.Join(out, artifact.NormFile), m.Norm); err != nil {
		return err
	}
	man, err := artifact.NewManifest(out, spec)
	if err != nil {
		return err
	}
	if err := artifact.WriteManifest(filepath.Join(out, artifact.ManifestFile), man); err != nil {
		return err
	}
	fmt.Printf("trained on %d samples in %s; weights sha256 %s\n", len(train), time.Since(start).Round(time.Millisecond), man.WeightsSHA256)
	return nil
}
