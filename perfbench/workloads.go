package main

import (
	"sort"
	"time"
)

// instance is a set-up workload, ready to measure.
type instance interface {
	// run measures one window, recording spans into tr when it is non-nil.
	run(window time.Duration, tr *tracer) (*measurement, error)
	// stress reports the ways a traced window failed to stress the layer
	// the workload was chosen for, from its self times and layer metrics.
	stress(lt layerTimes, layer map[string]float64) []string
	close()
}

type workload struct {
	name  string
	setup func(opt options) (instance, error)
}

var workloads = map[string]workload{
	"pipeline":      {"pipeline", setupPipeline},
	"predict-infer": {"predict-infer", setupPredictInfer},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
