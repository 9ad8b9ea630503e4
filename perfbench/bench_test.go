package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"strconv"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/mesh"
	"repro/internal/stats"
	"repro/internal/workload"
)

// smallCell is a paper cell cut down to test size.
func smallCell(t *testing.T, w string) cell {
	t.Helper()
	bw, ok := workloadByName(w)
	if !ok {
		t.Fatalf("no workload %s", w)
	}
	c := bw.cells(7)[0]
	c.cfg.MaxCompleted = 60
	c.cfg.WarmupJobs = 6
	return c
}

func TestTimedSourceTransparent(t *testing.T) {
	for _, w := range []string{"paper_stochastic", "paper_real_faults", "alloc_churn"} {
		c := smallCell(t, w)
		plainJobs := workload.Collect(c.src(), 300)
		ts := &timedSource{src: c.src()}
		if got := workload.Collect(ts, 300); !reflect.DeepEqual(got, plainJobs) {
			t.Fatalf("%s: wrapped source yields other jobs", w)
		}
		if ts.calls != 300 {
			t.Fatalf("%s: %d Next spans, want 300", w, ts.calls)
		}

		plain, err := runCell(c, c.src())
		if err != nil {
			t.Fatal(err)
		}
		ts = &timedSource{src: c.src()}
		wrapped, err := runCell(c, ts)
		if err != nil {
			t.Fatal(err)
		}
		if plain != wrapped {
			t.Fatalf("%s: wrapped source changed the result:\n%+v\n%+v", w, plain, wrapped)
		}
		if ts.calls == 0 || ts.ns <= 0 {
			t.Fatalf("%s: no spans recorded (%d calls, %d ns)", w, ts.calls, ts.ns)
		}
	}
}

func TestReplaysDeterministic(t *testing.T) {
	for _, w := range workloads() {
		type counts struct {
			attempts, failed, placed, busy int
			pieces                         float64
		}
		replay := func() ([]counts, netResult) {
			var out []counts
			for _, r := range w.replays(5) {
				res, err := allocReplayRun(r, 5, allocRequests(r.w, r.l)/8)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, counts{res.attempts, res.failed, res.placed, res.m.BusyCount(), res.piecesPerAlloc})
			}
			var nr netResult
			if w.netSource != nil {
				nr = netReplay(w.netSource(5), 5, 20)
			}
			return out, nr
		}
		a, na := replay()
		b, nb := replay()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: alloc replay differs between runs:\n%v\n%v", w.name, a, b)
		}
		if na.packets != nb.packets || na.jobsSent != nb.jobsSent || na.jobsSkip != nb.jobsSkip {
			t.Fatalf("%s: network replay differs between runs: %+v vs %+v", w.name, na, nb)
		}
		if w.netSource != nil && na.packets == 0 {
			t.Fatalf("%s: network replay sent nothing", w.name)
		}
	}
	// The timing-only replays must run at small sizes too.
	if ns := desHold(3, 100, 1000); ns <= 0 {
		t.Fatalf("desHold: %v ns", ns)
	}
	if ns := desCancel(3, 100, 256); ns <= 0 {
		t.Fatalf("desCancel: %v ns", ns)
	}
}

func TestCheckCatchesOneULP(t *testing.T) {
	c := smallCell(t, "paper_stochastic")
	ok := runSimCell(c, c.src(), false)
	if ok.err != nil {
		t.Fatal(ok.err)
	}
	bad := ok
	bad.res.MeanLatency = math.Nextafter(bad.res.MeanLatency, math.Inf(1))
	bad.fields = flatten(bad.res)

	committed := fingerprintSet{"paper_stochastic": {"7": {c.name: ok.fields}}}
	b := &bench{w: workloads()[0], seed: 7, chk: newChecker(committed, "paper_stochastic", 7), log: io.Discard}
	b.checkPass(passStats{cells: []cellOutcome{ok}})
	if b.failed != 0 {
		t.Fatalf("unperturbed cell failed the check")
	}
	b.checkPass(passStats{cells: []cellOutcome{bad, ok}})
	if b.attempted != 3 || b.failed != 1 {
		t.Fatalf("after a one-ulp perturbation: %d attempted, %d failed; want 3, 1", b.attempted, b.failed)
	}

	// Without a committed fingerprint the first pass is the reference.
	fresh := newChecker(fingerprintSet{}, "paper_stochastic", 7)
	if err := fresh.check(ok); err != nil {
		t.Fatalf("invariant check: %v", err)
	}
	if err := fresh.check(bad); err == nil {
		t.Fatalf("a one-ulp difference from the first pass passed")
	}
}

func TestCommittedFingerprintsLoad(t *testing.T) {
	fp, err := loadFingerprints()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		if len(fp[w.name]) == 0 {
			t.Errorf("%s: no committed fingerprints", w.name)
		}
		for seed, cells := range fp[w.name] {
			n, err := strconv.ParseInt(seed, 10, 64)
			if err != nil {
				t.Fatalf("%s: seed %q: %v", w.name, seed, err)
			}
			for _, c := range w.cells(n) {
				if _, ok := cells[c.name]; !ok && (w.fig == nil || sampled(w.fig(n), c)) {
					t.Errorf("%s seed %s: no fingerprint for cell %s", w.name, seed, c.name)
				}
			}
		}
	}
}

func TestWorkloadConfigsPassSimNew(t *testing.T) {
	for _, w := range workloads() {
		cells := w.cells(1)
		if len(cells) == 0 {
			t.Fatalf("%s: no cells", w.name)
		}
		if _, err := setupOnce(cells); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, r := range w.replays(1) {
			if _, err := alloc.ByName(r.strategy, mesh.New(r.w, r.l), stats.NewStream(1)); err != nil {
				t.Fatalf("%s: replay %s: %v", w.name, r.strategy, err)
			}
		}
	}
	f := fig02Quick(1)
	if got, want := len(figureCells(f)), len(f.exp.Loads)*len(f.exp.Combos)*f.opt.Replicator.MaxReps; got != want {
		t.Fatalf("fig02_quick mirrors %d runs, want %d", got, want)
	}
}

func TestBenchmarkJSONNamesWorkloads(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", got, want)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/network.(*Network).SendWithLoss"}, "runtime"},
		{[]string{"runtime.memmove", "repro/internal/des.(*Engine).Step"}, "des"},
		{[]string{"repro/internal/mesh.(*Mesh).largestFreeHist", "repro/internal/alloc.(*GABL).Allocate"}, "mesh"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"main.desHold", "main.main"}, "other"},
	}
	for _, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestLayerSharesReadsRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	c := smallCell(t, "paper_stochastic")
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := runCell(c, c.src()); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	shares, n, err := layerShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if n > 0 && math.Abs(total-1) > 1e-9 {
		t.Fatalf("shares sum to %v over %d samples", total, n)
	}
	if n > 10 && shares["des"]+shares["network"]+shares["sim"] == 0 {
		t.Fatalf("no simulator samples in %d: %v", n, shares)
	}
}
