// Package artifact stores and loads the benchmark's frozen ADARNet model:
// a weights checkpoint (core.Model.Save), the fitted normalisation, and a
// manifest recording how the model was trained and the SHA-256 of both
// files. The normalisation is stored separately because core.Model.Save
// writes only Params() and drops Model.Norm.
package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"adarnet/internal/core"
)

// File names inside the artifact directory.
const (
	WeightsFile  = "adarnet-quick.ckpt"
	NormFile     = "norm.json"
	ManifestFile = "manifest.json"
)

// Spec is the training recipe of the artifact.
type Spec struct {
	LRH, LRW       int
	PatchH, PatchW int
	Bins           int
	PerFamily      int
	Epochs         int
	BatchSize      int
	LearningRate   float64
	SolverMaxIter  int
	Seed           int64
}

// QuickSpec is adarnet-bench's quick scale: LR 16×64, 4×4 patches, 3 bins
// (levels 0..2), 3 corpus samples per flow family, 4 epochs.
func QuickSpec() Spec {
	return Spec{
		LRH: 16, LRW: 64, PatchH: 4, PatchW: 4, Bins: 3,
		PerFamily: 3, Epochs: 4, BatchSize: 4, LearningRate: 1e-3,
		SolverMaxIter: 12000, Seed: 1,
	}
}

// Manifest is the artifact's record: recipe plus file hashes.
type Manifest struct {
	Spec          Spec   `json:"spec"`
	WeightsSHA256 string `json:"weights_sha256"`
	NormSHA256    string `json:"norm_sha256"`
}

// NewManifest hashes the files already written to dir.
func NewManifest(dir string, spec Spec) (Manifest, error) {
	w, err := fileSHA256(filepath.Join(dir, WeightsFile))
	if err != nil {
		return Manifest{}, err
	}
	n, err := fileSHA256(filepath.Join(dir, NormFile))
	if err != nil {
		return Manifest{}, err
	}
	return Manifest{Spec: spec, WeightsSHA256: w, NormSHA256: n}, nil
}

// WriteManifest writes m as indented JSON.
func WriteManifest(path string, m Manifest) error { return writeJSON(path, m) }

// WriteNorm writes a normalisation as JSON.
func WriteNorm(path string, n core.Normalization) error { return writeJSON(path, n) }

// Load verifies both files against the manifest's hashes, then builds the
// model, restores the weights and installs the normalisation.
func Load(dir string) (*core.Model, Manifest, error) {
	var man Manifest
	if err := readJSON(filepath.Join(dir, ManifestFile), &man); err != nil {
		return nil, man, err
	}
	for _, f := range []struct{ name, want string }{
		{WeightsFile, man.WeightsSHA256},
		{NormFile, man.NormSHA256},
	} {
		got, err := fileSHA256(filepath.Join(dir, f.name))
		if err != nil {
			return nil, man, err
		}
		if got != f.want {
			return nil, man, fmt.Errorf("artifact: %s has sha256 %s, manifest records %s", f.name, got, f.want)
		}
	}
	cfg := core.DefaultConfig(man.Spec.PatchH, man.Spec.PatchW)
	cfg.Bins = man.Spec.Bins
	cfg.Seed = man.Spec.Seed
	m := core.New(cfg)
	if err := m.Load(filepath.Join(dir, WeightsFile)); err != nil {
		return nil, man, err
	}
	if err := readJSON(filepath.Join(dir, NormFile), &m.Norm); err != nil {
		return nil, man, err
	}
	return m, man, nil
}

func fileSHA256(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("artifact: %s: %w", path, err)
	}
	return nil
}
