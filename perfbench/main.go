// Command perfbench is the repository benchmark: host throughput and
// memory of the paper's own simulation runs, and a per-layer account of
// where their time goes. See README.md for the workloads, the metrics
// and how to read them.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh --workload paper_stochastic --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last line of standard output is the result object; the line
// before it is the run manifest.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/sched"
	"repro/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (see README.md)")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 30, "measurement budget of an end-to-end run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	record := fs.String("record", "", "run one pass and merge its cell fingerprints for the seed into this file")
	cpuprofile := fs.String("cpuprofile", "", "with --trace 1, also write the traced pass's CPU profile here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	fp, err := loadFingerprints()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *record != "" {
		if err := recordFingerprints(w, *seed, *record); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	man, err := json.Marshal(map[string]any{"manifest": manifest(w, *seed, *trace, *seconds)})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(man))

	b := &bench{w: w, seed: *seed, chk: newChecker(fp, w.name, *seed), log: stderr}
	if *trace == 0 {
		b.endToEnd(time.Duration(*seconds * float64(time.Second)))
	} else if err := b.perLayer(*cpuprofile); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	out, err := b.result()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, out)
	return 0
}

// bench accumulates one run's checks and metrics.
type bench struct {
	w         benchWorkload
	seed      int64
	chk       *checker
	log       io.Writer
	attempted int
	failed    int
	metrics   []metric
}

type metric struct {
	name  string
	value float64
	unit  string
}

func (b *bench) add(name string, value float64, unit string) {
	b.metrics = append(b.metrics, metric{name, value, unit})
}

// checkPass runs the output check on every cell of a pass. A failed
// cell is counted and logged; it never aborts the run.
func (b *bench) checkPass(p passStats) {
	for _, c := range p.cells {
		b.attempted++
		if err := b.chk.check(c); err != nil {
			b.failed++
			fmt.Fprintf(b.log, "perfbench: %s seed %d cell %s failed: %v\n", b.w.name, b.seed, c.name, err)
		}
	}
}

// result renders the last output line.
func (b *bench) result() (string, error) {
	ms := map[string]any{}
	correct := b.failed == 0 && b.attempted > 0
	for _, m := range b.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(b.log, "perfbench: metric %s is not finite\n", m.name)
			correct = false
			v = 0
		}
		ms[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": max(b.attempted, 1),
		"failed":    b.failed,
		"metrics":   ms,
	})
	return string(out), err
}

// Set-up is timed in batches of at least setupBatch, each from a
// collected heap; setup_s is the median over setupBatches batches of
// the mean set-up in each.
// setupBudget is what the passes leave for it in a run's budget.
const (
	setupBatch   = 30 * time.Millisecond
	setupBatches = 5
	setupBudget  = 1500 * time.Millisecond
)

// setupOnce builds every cell's source and simulator — everything a
// run does before its first event fires — and returns the time taken.
func setupOnce(cells []cell) (time.Duration, error) {
	start := time.Now()
	for _, c := range cells {
		if _, err := sim.New(c.cfg, c.src()); err != nil {
			return 0, fmt.Errorf("perfbench: cell %s: %w", c.name, err)
		}
	}
	return time.Since(start), nil
}

func (b *bench) setupSeconds() (float64, error) {
	cells := b.w.cells(b.seed)
	var means []float64
	for i := 0; i < setupBatches; i++ {
		var total time.Duration
		n := 0
		runtime.GC()
		for total < setupBatch {
			d, err := setupOnce(cells)
			if err != nil {
				return 0, err
			}
			total += d
			n++
		}
		means = append(means, total.Seconds()/float64(n))
	}
	return median(means), nil
}

// endToEnd measures the untraced passes — as many whole passes as fit
// the budget, at least one — and then set-up. Peak memory is read
// between the two, so the set-up loop's garbage cannot set it.
func (b *bench) endToEnd(budget time.Duration) {
	start := time.Now()
	var rates []float64
	var jobs int
	var allocBytes uint64
	var passTime time.Duration
	for {
		p := runPass(b.w, b.seed, false)
		b.checkPass(p)
		rates = append(rates, float64(p.jobs)/p.wall.Seconds())
		jobs += p.jobs
		allocBytes += p.mem.totalAlloc
		passTime += p.wall
		fmt.Fprintf(b.log, "perfbench: %s pass %d: %d jobs in %.3fs wall, %.3fs cpu\n", b.w.name, len(rates), p.jobs, p.wall.Seconds(), p.cpu.Seconds())
		for _, c := range p.cells {
			fmt.Fprintf(b.log, "perfbench:   cell %s: %d jobs in %.4fs\n", c.name, c.res.Completed, c.wall.Seconds())
		}
		mean := passTime / time.Duration(len(rates))
		if time.Since(start)+mean+setupBudget > budget {
			break
		}
	}
	peak := peakRSSMB()
	setup, err := b.setupSeconds()
	if err != nil {
		fmt.Fprintln(b.log, err)
		b.attempted++
		b.failed++
	}
	b.add("jobs_per_s", median(rates), "1/s")
	b.add("setup_s", setup, "s")
	b.add("alloc_mb_per_kjob", float64(allocBytes)/1e6/float64(jobs)*1000, "MB")
	b.add("peak_rss_mb", peak, "MB")
	b.add("ok_cell_frac", 1-float64(b.failed)/float64(max(b.attempted, 1)), "frac")
}

// Layer replay sizes. They are fixed so every count a replay returns
// repeats exactly for a seed.
const (
	desSteps      = 1 << 20
	desCancels    = 1 << 18
	netJobs       = 200
	schedRounds   = 1 << 20
	meshCellCalls = 4 << 20 // LargestFree calls × mesh size
)

// allocRequests is the alloc replay's request count on a mesh.
func allocRequests(w, l int) int {
	if w*l > 10000 {
		return 400
	}
	return 4000
}

// perLayer runs one untraced and one traced pass, then the layer
// replays, and emits the per-layer metrics.
func (b *bench) perLayer(cpuprofile string) error {
	plain := runPass(b.w, b.seed, false)
	b.checkPass(plain)

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("perfbench: cpu profile: %w", err)
	}
	traced := runPass(b.w, b.seed, true)
	pprof.StopCPUProfile()
	b.checkPass(traced)
	if cpuprofile != "" {
		if err := os.WriteFile(cpuprofile, prof.Bytes(), 0o644); err != nil {
			return fmt.Errorf("perfbench: %w", err)
		}
	}
	b.add("trace_overhead_frac", traced.wall.Seconds()/plain.wall.Seconds()-1, "frac")

	// Simulated counts and Source.Next spans: the traced pass itself
	// for serial workloads; for fig02_quick, whose runs happen inside
	// core.Run, its six highest-load runs replayed through sim.Run.
	counted := traced
	if b.w.fig != nil {
		counted = figureSample(b.w, b.seed)
		b.checkPass(counted)
	}
	next := counted.next
	b.add("workload.next_calls", float64(next.calls), "count")
	b.add("workload.ns_per_next", float64(next.ns)/float64(max(next.calls, 1)), "ns")

	b.add("des.ns_per_event.1k", desHold(b.seed, 1000, desSteps), "ns")
	b.add("des.ns_per_event.10k", desHold(b.seed, 10000, desSteps), "ns")
	b.add("des.ns_per_cancel", desCancel(b.seed, 1000, desCancels), "ns")

	var nr netResult
	if b.w.netSource != nil {
		nr = netReplay(b.w.netSource(b.seed), b.seed, netJobs)
	}
	b.add("network.ns_per_packet", nr.nsPerPacket, "ns")
	b.add("network.allocs_per_packet", nr.allocsPerPacket, "count")
	b.add("network.bytes_per_packet", nr.bytesPerPacket, "B")
	var sent, lost, retries, reroutes int64
	var queue float64
	jobs := 0
	for _, c := range counted.cells {
		sent += c.res.PacketsSent
		lost += c.res.PacketsLost
		retries += c.res.PacketRetries
		reroutes += c.res.Reroutes
		queue += c.res.MeanQueueLen
		jobs += c.res.Completed
	}
	b.add("network.packets_per_job", float64(sent)/float64(max(jobs, 1)), "count")
	b.add("network.retries", float64(retries), "count")
	b.add("network.reroutes", float64(reroutes), "count")
	b.add("network.lost_frac", float64(lost)/float64(max(sent, 1)), "frac")

	for _, r := range b.w.replays(b.seed) {
		res, err := allocReplayRun(r, b.seed, allocRequests(r.w, r.l))
		if err != nil {
			return err
		}
		p := "alloc." + r.key + "."
		b.add(p+"ns_per_allocate", res.nsAllocate, "ns")
		b.add(p+"ns_per_release", res.nsRelease, "ns")
		b.add(p+"fail_frac", float64(res.failed)/float64(res.attempts), "frac")
		b.add(p+"pieces_per_alloc", res.piecesPerAlloc, "count")
		b.add(p+"bytes_per_allocate", res.bytesPerAllocate, "B")
		if r.key == "gabl" {
			calls := max(meshCellCalls/res.m.Size(), 16)
			largest, churn := meshAtOccupancy(res.m, calls)
			b.add("mesh.ns_per_largest_free", largest, "ns")
			b.add("mesh.ns_per_sub_churn", churn, "ns")
		}
	}

	meanQueue := queue / float64(max(len(counted.cells), 1))
	hold := max(int(math.Round(meanQueue)), 1)
	b.add("sched.fcfs.ns_per_op", schedHold(sched.NewFCFS[*queueItem](), b.seed, hold, schedRounds), "ns")
	b.add("sched.ssd.ns_per_op", schedHold(sched.NewSSD(func(q *queueItem) float64 { return q.demand }), b.seed, hold, schedRounds), "ns")
	b.add("sched.mean_queue_len", meanQueue, "count")

	par := 1
	if b.w.fig != nil {
		par = b.w.fig(b.seed).opt.Parallelism
	}
	b.add("core.runs", float64(plain.runs), "count")
	b.add("core.busy_frac", plain.cpu.Seconds()/(plain.wall.Seconds()*float64(par)), "frac")

	kjobs := float64(plain.jobs) / 1000
	b.add("runtime.gc_cycles_per_kjob", float64(plain.mem.numGC)/kjobs, "count")
	b.add("runtime.gc_pause_ms", float64(plain.mem.pauseNs)/1e6, "ms")
	b.add("runtime.allocs_per_job", float64(plain.mem.mallocs)/float64(plain.jobs), "count")

	shares, samples, err := layerShares(prof.Bytes())
	if err != nil {
		return err
	}
	fmt.Fprintf(b.log, "perfbench: %s traced pass: %d profile samples\n", b.w.name, samples)
	for _, k := range layerBuckets {
		b.add("share."+k, shares[k], "frac")
	}
	return nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// manifest records what produced a result, so snapshots from different
// hosts or revisions are never compared silently.
func manifest(w benchWorkload, seed int64, trace int, seconds float64) map[string]any {
	rev, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	var cfg []map[string]any
	for _, c := range w.cells(seed) {
		cfg = append(cfg, map[string]any{
			"cell": c.name, "mesh": fmt.Sprintf("%dx%d", c.cfg.MeshW, c.cfg.MeshL),
			"strategy": c.cfg.Strategy, "scheduler": c.cfg.Scheduler,
			"jobs": c.cfg.MaxCompleted, "warmup": c.cfg.WarmupJobs,
			"faults": c.cfg.Faults != nil, "source": c.src().Name(),
		})
	}
	return map[string]any{
		"workload":     w.name,
		"seed":         seed,
		"trace":        trace,
		"seconds":      seconds,
		"cpu_model":    cpuModel(),
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go_version":   runtime.Version(),
		"vcs_revision": rev,
		"vcs_modified": modified,
		"cells":        cfg,
	}
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// recordFingerprints runs one pass and merges its cell fingerprints for
// the seed into path. It refuses a pass whose cells fail the invariant
// check, so a broken run cannot become the reference.
func recordFingerprints(w benchWorkload, seed int64, path string) error {
	p := runPass(w, seed, false)
	if w.fig != nil {
		p.cells = append(p.cells, figureSample(w, seed).cells...)
	}
	for _, c := range p.cells {
		if c.err != nil {
			return fmt.Errorf("perfbench: cell %s: %w", c.name, c.err)
		}
		if err := invariants(c); err != nil {
			return fmt.Errorf("perfbench: cell %s: %w", c.name, err)
		}
	}
	fp := fingerprintSet{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &fp); err != nil {
			return fmt.Errorf("perfbench: %s: %w", path, err)
		}
	}
	if fp[w.name] == nil {
		fp[w.name] = map[string]map[string]map[string]string{}
	}
	cells := map[string]map[string]string{}
	for _, c := range p.cells {
		cells[c.name] = c.fields
	}
	fp[w.name][strconv.FormatInt(seed, 10)] = cells
	data, err := json.MarshalIndent(fp, "", "\t")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
