package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// cellOutcome is one cell's output: its flattened result fields (the
// fingerprint) and, for sim cells, the sim.Result itself.
type cellOutcome struct {
	name   string
	fields map[string]string
	res    sim.Result
	err    error
	// want is the measured jobs a sim cell was asked for, or the
	// replications a figure cell was asked for.
	want int
	// figure marks a core.Cell of a figure rather than one sim run.
	figure bool
	// saturable marks a sim run that may legitimately stop at the
	// queue bound (a figure's run past its knee).
	saturable bool
	wall      time.Duration // host time of a sim cell's run
}

// runSimCell executes one cell through sim.New/sim.Run on src.
func runSimCell(c cell, src workload.Source, saturable bool) cellOutcome {
	start := time.Now()
	res, err := runCell(c, src)
	return cellOutcome{name: c.name, fields: flatten(res), res: res, err: err, want: c.cfg.MaxCompleted, saturable: saturable, wall: time.Since(start)}
}

// passStats is one pass over every cell of a workload.
type passStats struct {
	wall  time.Duration // host time running the cells
	cpu   time.Duration // process user+system CPU while the cells ran
	jobs  int           // measured jobs completed
	runs  int           // sim runs executed
	cells []cellOutcome
	mem   memDelta
	next  *timedSource // Source.Next spans (traced serial passes only)
}

type memDelta struct {
	totalAlloc, mallocs, numGC, pauseNs uint64
}

func (d *memDelta) add(e memDelta) {
	d.totalAlloc += e.totalAlloc
	d.mallocs += e.mallocs
	d.numGC += e.numGC
	d.pauseNs += e.pauseNs
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		totalAlloc: after.TotalAlloc - before.TotalAlloc,
		mallocs:    after.Mallocs - before.Mallocs,
		numGC:      uint64(after.NumGC - before.NumGC),
		pauseNs:    after.PauseTotalNs - before.PauseTotalNs,
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MiB: VmHWM, which
// starts afresh at exec, so a launcher's own footprint is not counted
// (getrusage's maxrss carries it across exec).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// timedSource wraps the source handed to sim.Run and records a span
// around every Next. It forwards Err so a wrapped stream still surfaces
// an abnormal end to the simulator.
type timedSource struct {
	src   workload.Source
	calls int64
	ns    int64
}

func (t *timedSource) Name() string { return t.src.Name() }

func (t *timedSource) Err() error { return workload.SourceErr(t.src) }

func (t *timedSource) Next() (workload.Job, bool) {
	start := time.Now()
	j, ok := t.src.Next()
	t.ns += int64(time.Since(start))
	t.calls++
	return j, ok
}

// runCell executes one serial cell. A panic inside the simulator is a
// failed cell, not a failed benchmark.
func runCell(c cell, src workload.Source) (res sim.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	s, err := sim.New(c.cfg, src)
	if err != nil {
		return sim.Result{}, err
	}
	return s.Run()
}

// runPass runs every cell of the workload once. With traced set, each
// source is wrapped in a timedSource. Each serial cell starts from a
// collected heap, as a fresh process would, so one cell's garbage does
// not land on the next; the pass's wall time, CPU time and memory
// deltas are the sums of its cells'.
func runPass(w benchWorkload, seed int64, traced bool) passStats {
	var ps passStats
	if traced {
		ps.next = &timedSource{}
	}
	if w.fig != nil {
		f := w.fig(seed)
		runtime.GC()
		mem, cpu, start := readMem(), cpuTime(), time.Now()
		series := core.Run(f.exp, f.opt)
		ps.wall, ps.cpu, ps.mem = time.Since(start), cpuTime()-cpu, memSince(mem)
		for _, c := range series.Cells {
			ps.cells = append(ps.cells, cellOutcome{
				name:   fmt.Sprintf("%s@%g", c.Combo, c.Load),
				fields: flatten(c),
				want:   f.opt.Replicator.MaxReps,
				figure: true,
			})
			ps.runs += c.Reps
			ps.jobs += c.Reps * f.opt.Jobs
		}
		return ps
	}
	for _, c := range w.cells(seed) {
		src := c.src()
		if traced {
			ps.next.src = src
			src = ps.next
		}
		runtime.GC()
		mem, cpu := readMem(), cpuTime()
		o := runSimCell(c, src, false)
		ps.cpu += cpuTime() - cpu
		ps.mem.add(memSince(mem))
		ps.cells = append(ps.cells, o)
		ps.wall += o.wall
		ps.runs++
		ps.jobs += o.res.Completed
	}
	return ps
}

// figureSample runs a figure's highest-load runs (every combo,
// replication 0) through sim.Run with timed sources: the simulated
// counts and Source.Next spans of runs that core.Run hides.
func figureSample(w benchWorkload, seed int64) passStats {
	f := w.fig(seed)
	ps := passStats{next: &timedSource{}}
	for _, c := range figureCells(f) {
		if !sampled(f, c) {
			continue
		}
		ps.next.src = c.src()
		o := runSimCell(c, ps.next, true)
		ps.cells = append(ps.cells, o)
		ps.runs++
		ps.jobs += o.res.Completed
	}
	return ps
}

// sampled reports whether figureSample runs the figure's cell c.
func sampled(f *figureRun, c cell) bool {
	return strings.HasSuffix(c.name, fmt.Sprintf("@%g#0", f.exp.Loads[len(f.exp.Loads)-1]))
}
