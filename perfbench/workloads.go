package main

import (
	"fmt"
	"hash/fnv"
	"runtime"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Paper settings shared by the two paper workloads.
const (
	paperLoad   = 0.0035 // the stochastic-uniform knee of core/figures.go
	paperJobs   = 1000
	paperWarmup = 100
)

// Alloc-churn settings: about 0.75 offered utilization with zero
// communication, so allocation and mesh mutation do the work.
const (
	churnRate    = 0.12
	churnCompute = 100.0
	churnJobs    = 1000
	churnWarmup  = 100
	churnReps    = 12
)

// cell is one sim.Run of a workload: a configuration and the job source
// it consumes. src builds a fresh source for every run, so repeated
// passes see identical inputs.
type cell struct {
	name string
	cfg  sim.Config
	src  func() workload.Source
}

// benchWorkload is one named workload. Serial workloads run their cells
// one after another through sim.New/sim.Run; fig02_quick instead hands
// the whole experiment to core.Run, exactly as cmd/figures -quick does.
type benchWorkload struct {
	name string
	// cells builds the serial cells for a seed; for fig02_quick these
	// mirror the runs core.Run makes, for set-up timing and sampling.
	cells func(seed int64) []cell
	// fig builds the experiment core.Run drives (fig02_quick only).
	fig func(seed int64) *figureRun
	// replays lists the allocation strategies the alloc replay drives,
	// each on the mesh and request stream it meets in this workload.
	replays func(seed int64) []allocReplay
	// netSource gives the job stream whose shapes the network replay
	// sends among; nil when the workload never communicates.
	netSource func(seed int64) workload.Source
}

// figureRun is a core.Run invocation.
type figureRun struct {
	exp core.Experiment
	opt core.Options
}

// allocReplay is the request stream one strategy meets: its mesh and
// the source whose job shapes become requests.
type allocReplay struct {
	key      string // metric key: gabl, paging0, mbs
	strategy string
	w, l     int
	src      workload.Source
}

var paperStrategies = []struct{ key, name string }{
	{"gabl", "GABL"}, {"paging0", "Paging(0)"}, {"mbs", "MBS"},
}

// cellSeed derives the independent seed of one cell of a workload, so
// the cells of a pass average over independent job streams instead of
// sharing one.
func cellSeed(seed int64, cell string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", seed, cell)
	return int64(h.Sum64())
}

// paperCells builds the paper's six combos on the 16x22 mesh, each as
// reps replications on their own job stream (and fault plan) derived
// from the seed.
func paperCells(src func(seed int64) workload.Source, faults func(seed int64) *sim.FaultPlan, reps int) func(seed int64) []cell {
	return func(seed int64) []cell {
		var out []cell
		for _, c := range core.PaperCombos() {
			for r := 0; r < reps; r++ {
				name := fmt.Sprintf("%s#%d", c, r)
				cs := cellSeed(seed, name)
				cfg := sim.DefaultConfig()
				cfg.Strategy = c.Strategy
				cfg.Scheduler = c.Scheduler
				cfg.MaxCompleted = paperJobs
				cfg.WarmupJobs = paperWarmup
				cfg.MaxQueued = 4 * paperJobs
				cfg.Seed = cs
				if faults != nil {
					cfg.Faults = faults(cs)
				}
				out = append(out, cell{name: name, cfg: cfg, src: func() workload.Source { return src(cs) }})
			}
		}
		return out
	}
}

func paperReplays(src func(seed int64) workload.Source) func(seed int64) []allocReplay {
	return func(seed int64) []allocReplay {
		var out []allocReplay
		for _, s := range paperStrategies {
			out = append(out, allocReplay{key: s.key, strategy: s.name, w: 16, l: 22, src: src(seed)})
		}
		return out
	}
}

func stochasticSource(seed int64) workload.Source {
	return core.StochasticUniform.Source(16, 22, 1, paperLoad, seed)
}

func realSource(seed int64) workload.Source {
	return core.RealTrace.Source(16, 22, 1, paperLoad, seed)
}

// faultPlan is the benchmark's own copy of the shape of
// examples/faultplan.json: node MTBF/MTTR, one 4x4 node outage, two
// single-link outages and a whole-row link outage, requeue policy. The
// plan seed is mixed with the cell seed, as core.Options.Faults does.
func faultPlan(seed int64) *sim.FaultPlan {
	return &sim.FaultPlan{
		Seed:   99 ^ seed,
		MTBF:   4000000,
		MTTR:   20000,
		Policy: sim.KillRequeue,
		Outages: []sim.Outage{
			{At: 100000, Duration: 150000, Region: mesh.Sub(0, 0, 3, 3)},
		},
		Links: &sim.LinkPlan{
			MTBF: 8000000,
			MTTR: 15000,
			Outages: []sim.LinkOutage{
				{At: 120000, Duration: 80000, Links: []sim.LinkRef{
					{X: 4, Y: 5, Dir: "East"}, {X: 9, Y: 2, Dir: "North"},
				}},
				{At: 200000, Duration: 60000, Row: &sim.LinkRow{Y: 10, Dir: "North"}},
			},
		},
	}
}

// churnSource is the zero-communication alloc-stress stream for a mesh.
func churnSource(side int, seed int64) workload.Source {
	return workload.NewAllocStress3D(stats.NewStream(seed), side, side, 1, churnRate, churnCompute)
}

// churnMeshes gives each strategy its alloc_churn mesh: Paging(0) builds
// one piece per processor, so it gets the smaller mesh.
var churnMeshes = []struct {
	key, name string
	side      int
}{
	{"gabl", "GABL", 256}, {"mbs", "MBS", 256}, {"paging0", "Paging(0)", 128},
}

// churnCells runs each strategy as churnReps independent replications:
// GABL's cost on a fragmented 256x256 mesh varies widely from one job
// stream to the next, and independent streams average that out faster
// than one long stream does.
func churnCells(seed int64) []cell {
	var out []cell
	for _, m := range churnMeshes {
		for r := 0; r < churnReps; r++ {
			name := fmt.Sprintf("%s(SSD)/%dx%d#%d", m.name, m.side, m.side, r)
			cs := cellSeed(seed, name)
			cfg := sim.DefaultConfig()
			cfg.MeshW, cfg.MeshL = m.side, m.side
			cfg.Strategy = m.name
			cfg.Scheduler = "SSD"
			cfg.MaxCompleted = churnJobs
			cfg.WarmupJobs = churnWarmup
			cfg.Seed = cs
			side := m.side
			out = append(out, cell{name: name, cfg: cfg, src: func() workload.Source { return churnSource(side, cs) }})
		}
	}
	return out
}

func churnReplays(seed int64) []allocReplay {
	var out []allocReplay
	for _, m := range churnMeshes {
		out = append(out, allocReplay{key: m.key, strategy: m.name, w: m.side, l: m.side, src: churnSource(m.side, seed)})
	}
	return out
}

// fig02Quick is cmd/figures -fig fig02 -quick with the seed as the base
// seed perturbation and at most one concurrent cell per core.
func fig02Quick(seed int64) *figureRun {
	exp, ok := core.FigureByID("fig02")
	if !ok {
		panic("perfbench: experiment fig02 is not registered")
	}
	return &figureRun{exp: exp, opt: core.Options{
		Jobs:        200,
		Replicator:  stats.Replicator{MinReps: 2, MaxReps: 2, RelTol: 0.05},
		Parallelism: min(runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		BaseSeed:    seed,
	}}
}

// figureCells mirrors the per-replication sim configurations core.Run
// builds for an experiment (core's runCell), so set-up time and the
// layer replays can be measured outside core.Run.
func figureCells(f *figureRun) []cell {
	var out []cell
	for _, load := range f.exp.Loads {
		for _, c := range f.exp.Combos {
			for r := 0; r < f.opt.Replicator.MaxReps; r++ {
				seed := figureSeed(f.exp.ID, c, load, r) ^ f.opt.BaseSeed
				cfg := sim.DefaultConfig()
				cfg.Strategy = c.Strategy
				cfg.Scheduler = c.Scheduler
				cfg.MaxCompleted = f.opt.Jobs
				cfg.WarmupJobs = f.exp.Warmup
				cfg.MaxQueued = 4 * f.opt.Jobs
				cfg.Seed = seed
				w, ld := f.exp.Workload, load
				out = append(out, cell{
					name: fmt.Sprintf("%s@%g#%d", c, load, r),
					cfg:  cfg,
					src: func() workload.Source {
						return w.Source(16, 22, 1, ld, seed)
					},
				})
			}
		}
	}
	return out
}

// figureSeed is core's per-replication seed derivation.
func figureSeed(expID string, c core.Combo, load float64, rep int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%g|%d", expID, c, load, rep)
	return int64(h.Sum64())
}

// workloads is the benchmark's workload table, in BENCHMARK.json order.
func workloads() []benchWorkload {
	return []benchWorkload{
		{
			name:      "paper_stochastic",
			cells:     paperCells(stochasticSource, nil, 1),
			replays:   paperReplays(stochasticSource),
			netSource: stochasticSource,
		},
		{
			name:      "paper_real_faults",
			cells:     paperCells(realSource, faultPlan, 2),
			replays:   paperReplays(realSource),
			netSource: realSource,
		},
		{
			name:    "alloc_churn",
			cells:   churnCells,
			replays: churnReplays,
		},
		{
			name:      "fig02_quick",
			cells:     func(seed int64) []cell { return figureCells(fig02Quick(seed)) },
			fig:       fig02Quick,
			replays:   paperReplays(realSource),
			netSource: realSource,
		},
	}
}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}
