package workload

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestSyntheticParagonMatchesPublishedStats(t *testing.T) {
	spec := DefaultParagon()
	jobs := SyntheticParagon(spec, 42)
	if len(jobs) != 10658 {
		t.Fatalf("jobs = %d, want 10658", len(jobs))
	}
	// Mean inter-arrival 1186.7 s (within 5%).
	mi := MeanInterarrival(jobs)
	if math.Abs(mi-1186.7)/1186.7 > 0.05 {
		t.Fatalf("mean interarrival = %v, want ~1186.7", mi)
	}
	// Mean size ~34.5 nodes. Shapes inflate requests slightly above the
	// drawn processor counts, so accept 32..40.
	ms := MeanSize(jobs)
	if ms < 32 || ms > 40 {
		t.Fatalf("mean size = %v, want ~34.5", ms)
	}
	// Favouring non-powers of two: well under the ~30% a uniform draw
	// over small sizes would give.
	if f := FractionPowerOfTwoSizes(jobs); f > 0.25 {
		t.Fatalf("power-of-two fraction = %v, want < 0.25", f)
	}
}

func TestSyntheticParagonDeterministic(t *testing.T) {
	a := SyntheticParagon(DefaultParagon(), 7)
	b := SyntheticParagon(DefaultParagon(), 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs across same-seed generations", i)
		}
	}
	c := SyntheticParagon(DefaultParagon(), 8)
	same := 0
	for i := range a {
		if a[i].Size() == c[i].Size() && a[i].Arrival == c[i].Arrival {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestSyntheticParagonJobsValid(t *testing.T) {
	jobs := SyntheticParagon(DefaultParagon(), 3)
	prev := -1.0
	for i, j := range jobs {
		if j.Arrival <= prev {
			t.Fatalf("job %d arrival %v <= previous %v", i, j.Arrival, prev)
		}
		prev = j.Arrival
		if j.W < 1 || j.W > 16 || j.L < 1 || j.L > 22 {
			t.Fatalf("job %d shape %dx%d out of mesh", i, j.W, j.L)
		}
		if j.Compute < 1 {
			t.Fatalf("job %d compute %v < 1", i, j.Compute)
		}
		if j.Messages < 1 {
			t.Fatalf("job %d messages %d", i, j.Messages)
		}
		if j.ID != i {
			t.Fatalf("job %d has ID %d", i, j.ID)
		}
	}
}

func TestSyntheticParagonBursty(t *testing.T) {
	jobs := SyntheticParagon(DefaultParagon(), 11)
	var acc stats.Accumulator
	for i := 1; i < len(jobs); i++ {
		acc.Add(jobs[i].Arrival - jobs[i-1].Arrival)
	}
	cv := acc.Std() / acc.Mean()
	if cv <= 1.05 {
		t.Fatalf("interarrival CV = %v, want > 1 (bursty, unlike Poisson)", cv)
	}
}

func TestSyntheticParagonHeavyTailRuntimes(t *testing.T) {
	jobs := SyntheticParagon(DefaultParagon(), 13)
	var acc stats.Accumulator
	for _, j := range jobs {
		acc.Add(j.Compute)
	}
	if acc.Mean() < 500 || acc.Mean() > 1100 {
		t.Fatalf("mean runtime = %v, want ~780", acc.Mean())
	}
	if cv := acc.Std() / acc.Mean(); cv <= 1 {
		t.Fatalf("runtime CV = %v, want > 1 (heavy tail)", cv)
	}
}

func TestSyntheticParagonCustomSpec(t *testing.T) {
	spec := ParagonSpec{Jobs: 100, MeshW: 8, MeshL: 8, MeanInterarrival: 50, NumMes: 3}
	jobs := SyntheticParagon(spec, 1)
	if len(jobs) != 100 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	for _, j := range jobs {
		if j.Size() > 64 {
			t.Fatalf("job size %d exceeds 8x8 mesh", j.Size())
		}
	}
}

func TestSyntheticParagonPanicsOnBadSpec(t *testing.T) {
	noGaps := DefaultParagon()
	noGaps.MeanInterarrival = 0
	for _, spec := range []ParagonSpec{{}, noGaps} {
		func() {
			defer func() {
				if r := recover(); r != "workload: invalid Paragon spec" {
					t.Fatalf("bad spec %+v: recovered %v, want the invalid-spec panic", spec, r)
				}
			}()
			SyntheticParagon(spec, 1)
		}()
	}
}

func TestIsPowerOfTwo(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 256} {
		if !isPowerOfTwo(p) {
			t.Errorf("isPowerOfTwo(%d) = false", p)
		}
	}
	for _, p := range []int{0, -4, 3, 6, 33} {
		if isPowerOfTwo(p) {
			t.Errorf("isPowerOfTwo(%d) = true", p)
		}
	}
}
