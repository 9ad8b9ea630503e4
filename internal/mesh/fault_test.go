package mesh

// Faulty-mesh checks and the shadow occupancy model: every Fail/Recover
// mutation is checked against its contract (checkFail/checkRecover),
// and every churn driver in the package — these fault churns, the
// index, volume and bitboard churns and FuzzIndexOps — mirrors its
// operations into a per-cell model that distinguishes pinned from
// allocated cells (faultModel): busy must always read as allocated ∪
// pinned, and the release paths must never free a pin. The sharded
// determinism matrix reruns serial-vs-sharded search identity on
// churn-plus-failure traces at every worker count.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// checkFail exercises Fail and verifies its contract against the
// pre-state: out-of-bounds and repeated failures are side-effect-free
// errors; a successful failure pins the cell busy, grows the pin count
// by one, shrinks the free count only when the cell was free, and
// never changes the allocated count.
func checkFail(t *testing.T, m *Mesh, c Coord) {
	t.Helper()
	inb := m.InBounds(c)
	wasPinned := m.Pinned(c)
	wasBusy := inb && m.Busy(c)
	free, pins, allocd := m.FreeCount(), m.PinnedCount(), m.AllocatedCount()
	err := m.Fail(c)
	if !inb || wasPinned {
		if err == nil {
			t.Fatalf("Fail(%v) succeeded (inBounds=%v, pinned=%v)", c, inb, wasPinned)
		}
		if m.FreeCount() != free || m.PinnedCount() != pins || m.AllocatedCount() != allocd {
			t.Fatalf("failed Fail(%v) changed counts\n%s", c, m)
		}
		return
	}
	if err != nil {
		t.Fatalf("Fail(%v): %v", c, err)
	}
	if !m.Pinned(c) || !m.Busy(c) {
		t.Fatalf("Fail(%v): cell pinned=%v busy=%v, want both\n%s", c, m.Pinned(c), m.Busy(c), m)
	}
	wantFree := free
	if !wasBusy {
		wantFree--
	}
	if m.FreeCount() != wantFree || m.PinnedCount() != pins+1 || m.AllocatedCount() != allocd {
		t.Fatalf("Fail(%v): counts free=%d pins=%d alloc=%d, want %d/%d/%d\n%s",
			c, m.FreeCount(), m.PinnedCount(), m.AllocatedCount(), wantFree, pins+1, allocd, m)
	}
}

// checkRecover exercises Recover and verifies its contract against the
// pre-state: recovering a non-failed cell is a side-effect-free error;
// a successful recovery unpins, frees the cell exactly when no live
// allocation holds it, and never changes the allocated count.
func checkRecover(t *testing.T, m *Mesh, c Coord) {
	t.Helper()
	wasPinned := m.Pinned(c)
	wasOverlay := wasPinned && m.overlay[m.Index(c)]
	free, pins, allocd := m.FreeCount(), m.PinnedCount(), m.AllocatedCount()
	err := m.Recover(c)
	if !wasPinned {
		if err == nil {
			t.Fatalf("Recover(%v) succeeded on a non-failed cell", c)
		}
		if m.FreeCount() != free || m.PinnedCount() != pins || m.AllocatedCount() != allocd {
			t.Fatalf("failed Recover(%v) changed counts\n%s", c, m)
		}
		return
	}
	if err != nil {
		t.Fatalf("Recover(%v): %v", c, err)
	}
	if m.Pinned(c) {
		t.Fatalf("Recover(%v): still pinned\n%s", c, m)
	}
	if m.Busy(c) != wasOverlay {
		t.Fatalf("Recover(%v): busy=%v, want %v (overlay)\n%s", c, m.Busy(c), wasOverlay, m)
	}
	wantFree := free
	if !wasOverlay {
		wantFree++
	}
	if m.FreeCount() != wantFree || m.PinnedCount() != pins-1 || m.AllocatedCount() != allocd {
		t.Fatalf("Recover(%v): counts free=%d pins=%d alloc=%d, want %d/%d/%d\n%s",
			c, m.FreeCount(), m.PinnedCount(), m.AllocatedCount(), wantFree, pins-1, allocd, m)
	}
}

// faultModel is the shadow occupancy model every churn driver keeps
// next to its mesh: alloc and pin per cell, updated only from the
// operations the driver issues and never read back from the mesh. The
// mesh's busy map must equal alloc ∪ pin at all times, and the overlay
// bit the mesh keeps is the derived alloc ∧ pin. Each mutation helper
// below runs the operation on the mesh, demands the model's verdict on
// whether it may succeed, and applies it to the model only then.
type faultModel struct {
	m     *Mesh
	alloc []bool
	pin   []bool
}

func newFaultModel(m *Mesh) *faultModel {
	return &faultModel{m: m, alloc: make([]bool, m.Size()), pin: make([]bool, m.Size())}
}

func (fm *faultModel) busy(i int) bool { return fm.alloc[i] || fm.pin[i] }

// diff compares a mesh (the model's own, or a clone of it) against the
// model: the busy map derived from the words cell by cell, the pin
// marks, and the free, allocated and pinned counts. It returns the
// first disagreement, or nil.
func (fm *faultModel) diff(m *Mesh) error {
	busy := busySnapshot(m)
	nAlloc, nPin, nBusy := 0, 0, 0
	for i := range fm.alloc {
		if busy[i] != fm.busy(i) {
			return fmt.Errorf("busy(%v) = %v, model says %v\n%s", m.CoordOf(i), busy[i], fm.busy(i), m)
		}
		if c := m.CoordOf(i); m.Pinned(c) != fm.pin[i] {
			return fmt.Errorf("Pinned(%v) = %v, model says %v\n%s", c, m.Pinned(c), fm.pin[i], m)
		}
		if fm.alloc[i] {
			nAlloc++
		}
		if fm.pin[i] {
			nPin++
		}
		if fm.busy(i) {
			nBusy++
		}
	}
	if m.FreeCount() != m.Size()-nBusy || m.AllocatedCount() != nAlloc || m.PinnedCount() != nPin {
		return fmt.Errorf("counts free=%d alloc=%d pins=%d, model says %d/%d/%d",
			m.FreeCount(), m.AllocatedCount(), m.PinnedCount(), m.Size()-nBusy, nAlloc, nPin)
	}
	return nil
}

// verify holds the mesh to the model, then runs the word and aggregate
// invariants (checkTables).
func (fm *faultModel) verify(t *testing.T) {
	t.Helper()
	if err := fm.diff(fm.m); err != nil {
		t.Fatal(err)
	}
	checkTables(t, fm.m)
}

// boxCells lists the cuboid's cell indexes on the model's mesh.
func (fm *faultModel) boxCells(s Submesh) []int {
	var out []int
	for z := s.Z1; z <= s.Z2; z++ {
		for y := s.Y1; y <= s.Y2; y++ {
			for x := s.X1; x <= s.X2; x++ {
				out = append(out, fm.m.Index(Coord{x, y, z}))
			}
		}
	}
	return out
}

// inBounds reports whether the (valid) cuboid lies on the mesh.
func (fm *faultModel) inBounds(s Submesh) bool {
	return fm.m.InBounds(s.Base()) && fm.m.InBounds(s.End())
}

// allocSub runs AllocateSub and demands the model's verdict: success
// exactly when the cuboid is valid, in bounds and every cell is
// neither allocated nor pinned.
func (fm *faultModel) allocSub(t *testing.T, s Submesh) error {
	t.Helper()
	want := s.Valid() && fm.inBounds(s)
	if want {
		for _, i := range fm.boxCells(s) {
			if fm.busy(i) {
				want = false
				break
			}
		}
	}
	err := fm.m.AllocateSub(s)
	if (err == nil) != want {
		t.Fatalf("AllocateSub(%v) err=%v, model wants success=%v\n%s", s, err, want, fm.m)
	}
	if err == nil {
		for _, i := range fm.boxCells(s) {
			fm.alloc[i] = true
		}
	}
	return err
}

// releaseSub runs ReleaseSub and demands the model's verdict: an
// invalid cuboid is a no-op, otherwise success exactly when the cuboid
// is in bounds and every cell is allocated (a pinned cell must be
// overlaid by a live allocation — releasing a bare pin is an error, and
// a successful release keeps every pin busy).
func (fm *faultModel) releaseSub(t *testing.T, s Submesh) error {
	t.Helper()
	want := !s.Valid() || fm.inBounds(s)
	if s.Valid() && want {
		for _, i := range fm.boxCells(s) {
			if !fm.alloc[i] {
				want = false
				break
			}
		}
	}
	err := fm.m.ReleaseSub(s)
	if (err == nil) != want {
		t.Fatalf("ReleaseSub(%v) err=%v, model wants success=%v\n%s", s, err, want, fm.m)
	}
	if err == nil && s.Valid() {
		for _, i := range fm.boxCells(s) {
			fm.alloc[i] = false
		}
	}
	return err
}

// nodesOK reports whether the per-node request is in bounds, free of
// duplicates, and every cell passes ok.
func (fm *faultModel) nodesOK(nodes []Coord, ok func(i int) bool) bool {
	seen := make(map[int]bool, len(nodes))
	for _, c := range nodes {
		if !fm.m.InBounds(c) {
			return false
		}
		i := fm.m.Index(c)
		if seen[i] || !ok(i) {
			return false
		}
		seen[i] = true
	}
	return true
}

// allocate runs the per-node Allocate and demands the model's verdict:
// success exactly when every node is in bounds, distinct, and neither
// allocated nor pinned.
func (fm *faultModel) allocate(t *testing.T, nodes []Coord) error {
	t.Helper()
	want := fm.nodesOK(nodes, func(i int) bool { return !fm.busy(i) })
	err := fm.m.Allocate(nodes)
	if (err == nil) != want {
		t.Fatalf("Allocate(%v) err=%v, model wants success=%v\n%s", nodes, err, want, fm.m)
	}
	if err == nil {
		for _, c := range nodes {
			fm.alloc[fm.m.Index(c)] = true
		}
	}
	return err
}

// release runs the per-node Release and demands the model's verdict:
// success exactly when every node is in bounds, distinct and allocated
// — the pinned-aware path with mixed pinned, overlaid and
// plain-allocated cells included.
func (fm *faultModel) release(t *testing.T, nodes []Coord) error {
	t.Helper()
	want := fm.nodesOK(nodes, func(i int) bool { return fm.alloc[i] })
	err := fm.m.Release(nodes)
	if (err == nil) != want {
		t.Fatalf("Release(%v) err=%v, model wants success=%v\n%s", nodes, err, want, fm.m)
	}
	if err == nil {
		for _, c := range nodes {
			fm.alloc[fm.m.Index(c)] = false
		}
	}
	return err
}

// fail applies a contract-checked Fail (checkFail) and mirrors it.
func (fm *faultModel) fail(t *testing.T, c Coord) {
	t.Helper()
	checkFail(t, fm.m, c)
	if fm.m.InBounds(c) {
		fm.pin[fm.m.Index(c)] = true
	}
}

// recover applies a contract-checked Recover (checkRecover) and
// mirrors it.
func (fm *faultModel) recover(t *testing.T, c Coord) {
	t.Helper()
	checkRecover(t, fm.m, c)
	if fm.m.InBounds(c) {
		fm.pin[fm.m.Index(c)] = false
	}
}

// reset runs Reset, which frees every cell and recovers every pin.
func (fm *faultModel) reset() {
	fm.m.Reset()
	clear(fm.alloc)
	clear(fm.pin)
}

// cells lists, in index order, the coordinates whose model state
// passes keep.
func (fm *faultModel) cells(keep func(i int) bool) []Coord {
	var out []Coord
	for i := range fm.alloc {
		if keep(i) {
			out = append(out, fm.m.CoordOf(i))
		}
	}
	return out
}

// randCoord draws a coordinate that is occasionally just out of bounds.
func randCoord(m *Mesh, rng *rand.Rand) Coord {
	return Coord{rng.Intn(m.W()+2) - 1, rng.Intn(m.L()+2) - 1, rng.Intn(m.H()+2) - 1}
}

// stepFail applies a model-checked Fail of a random cell.
func (fm *faultModel) stepFail(t *testing.T, rng *rand.Rand) {
	fm.fail(t, randCoord(fm.m, rng))
}

// stepRecover applies a model-checked Recover of a random cell —
// biased towards currently pinned cells so recoveries actually happen.
func (fm *faultModel) stepRecover(t *testing.T, rng *rand.Rand) {
	c := randCoord(fm.m, rng)
	if fm.m.PinnedCount() > 0 && rng.Intn(2) == 0 {
		for tries := 0; tries < 64; tries++ {
			p := Coord{rng.Intn(fm.m.W()), rng.Intn(fm.m.L()), rng.Intn(fm.m.H())}
			if fm.pin[fm.m.Index(p)] {
				c = p
				break
			}
		}
	}
	fm.recover(t, c)
}

// stepAllocSub attempts a model-checked allocation of a random small
// cuboid, occasionally invalid or out of bounds.
func (fm *faultModel) stepAllocSub(t *testing.T, rng *rand.Rand) {
	m := fm.m
	s := Submesh{
		X1: rng.Intn(m.W()+2) - 1, Y1: rng.Intn(m.L()+2) - 1, Z1: rng.Intn(m.H()+2) - 1,
	}
	s.X2 = s.X1 + rng.Intn(4)
	s.Y2 = s.Y1 + rng.Intn(4)
	s.Z2 = s.Z1 + rng.Intn(2)
	fm.allocSub(t, s)
}

// stepReleaseSub attempts a model-checked release of a random small
// cuboid, occasionally invalid or out of bounds.
func (fm *faultModel) stepReleaseSub(t *testing.T, rng *rand.Rand) {
	m := fm.m
	s := Submesh{
		X1: rng.Intn(m.W()+2) - 1, Y1: rng.Intn(m.L()+2) - 1, Z1: rng.Intn(m.H()+2) - 1,
	}
	s.X2 = s.X1 + rng.Intn(3)
	s.Y2 = s.Y1 + rng.Intn(3)
	s.Z2 = s.Z1 + rng.Intn(2)
	fm.releaseSub(t, s)
}

// stepReleaseCells attempts a model-checked per-node Release of a few
// distinct random cells.
func (fm *faultModel) stepReleaseCells(t *testing.T, rng *rand.Rand) {
	m := fm.m
	n := 1 + rng.Intn(4)
	var nodes []Coord
	seen := map[int]bool{}
	for len(nodes) < n {
		c := Coord{rng.Intn(m.W()), rng.Intn(m.L()), rng.Intn(m.H())}
		if seen[m.Index(c)] {
			continue
		}
		seen[m.Index(c)] = true
		nodes = append(nodes, c)
	}
	fm.release(t, nodes)
}

// runFaultOracle churns one mesh with model-checked fault and
// allocation ops, verifying the model and the full table oracle after
// every step and the query layer periodically.
func runFaultOracle(t *testing.T, m *Mesh, steps int, queryCheck func(*testing.T, *Mesh, *rand.Rand)) {
	t.Helper()
	if testing.Short() {
		steps /= 4
	}
	fm := newFaultModel(m)
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < steps; i++ {
		switch rng.Intn(10) {
		case 0, 1:
			fm.stepFail(t, rng)
		case 2:
			fm.stepRecover(t, rng)
		case 3, 4, 5, 6:
			fm.stepAllocSub(t, rng)
		case 7, 8:
			fm.stepReleaseSub(t, rng)
		default:
			fm.stepReleaseCells(t, rng)
		}
		fm.verify(t)
		if queryCheck != nil && i%40 == 39 {
			queryCheck(t, m, rng)
		}
	}
}

func TestFaultOraclePlanar(t *testing.T) {
	runFaultOracle(t, New(16, 22), 400, checkQueries)
}

func TestFaultOracle3D(t *testing.T) {
	runFaultOracle(t, New3D(8, 9, 4), 400, checkQueries3D)
}

// TestFaultOracleTorus churns a torus with seam-crossing allocations
// (SplitWrap pieces) interleaved with failures and recoveries: SubFree
// across the seams must agree with the model, pins inside wrapped
// pieces survive the group's release, and the table oracle holds
// throughout.
func TestFaultOracleTorus(t *testing.T) {
	m := NewTorus(16, 22)
	fm := newFaultModel(m)
	rng := rand.New(rand.NewSource(43))
	var groups [][]Submesh
	steps := 400
	if testing.Short() {
		steps /= 4
	}
	for i := 0; i < steps; i++ {
		switch rng.Intn(8) {
		case 0, 1:
			fm.stepFail(t, rng)
		case 2:
			fm.stepRecover(t, rng)
		case 3, 4, 5:
			// A wrapped placement: the logical rectangle may cross either
			// seam; its planar pieces commit only when the model says the
			// whole wrapped region is free.
			s := SubAt(rng.Intn(m.W()), rng.Intn(m.L()), 1+rng.Intn(6), 1+rng.Intn(6))
			pieces := m.SplitWrap(s)
			want := true
			for _, p := range pieces {
				for _, idx := range fm.boxCells(p) {
					if fm.busy(idx) {
						want = false
					}
				}
			}
			if got := m.SubFree(s); got != want {
				t.Fatalf("SubFree(%v) = %v, model says %v\n%s", s, got, want, m)
			}
			if !want {
				// Exercise the error path on a piece the model rejects.
				for _, p := range pieces {
					busy := false
					for _, idx := range fm.boxCells(p) {
						if fm.busy(idx) {
							busy = true
						}
					}
					if busy {
						fm.allocSub(t, p) // demands the model's failure verdict
						break
					}
				}
				break
			}
			for _, p := range pieces {
				fm.allocSub(t, p)
			}
			groups = append(groups, pieces)
		default:
			if len(groups) == 0 {
				break
			}
			gi := rng.Intn(len(groups))
			g := groups[gi]
			groups[gi] = groups[len(groups)-1]
			groups = groups[:len(groups)-1]
			for pi := len(g) - 1; pi >= 0; pi-- {
				if err := fm.releaseSub(t, g[pi]); err != nil {
					t.Fatalf("ReleaseSub(%v): %v", g[pi], err)
				}
			}
		}
		fm.verify(t)
		if i%40 == 39 {
			checkTorusQueries(t, m, rng)
		}
	}
}

// TestReleaseNeverFreesPinned pins the tentpole's core promise: a
// failure landing inside a live allocation survives the allocation's
// release, both through ReleaseSub and through per-node Release.
func TestReleaseNeverFreesPinned(t *testing.T) {
	m := New(8, 8)
	s := SubAt(1, 1, 4, 3)
	if err := m.AllocateSub(s); err != nil {
		t.Fatal(err)
	}
	dead := Coord{2, 2, 0}
	if err := m.Fail(dead); err != nil {
		t.Fatal(err)
	}
	if err := m.ReleaseSub(s); err != nil {
		t.Fatalf("release around the pin: %v", err)
	}
	if !m.Busy(dead) || !m.Pinned(dead) {
		t.Fatalf("pinned cell freed by ReleaseSub\n%s", m)
	}
	if m.FreeCount() != m.Size()-1 || m.AllocatedCount() != 0 {
		t.Fatalf("free=%d alloc=%d after release, want %d/0", m.FreeCount(), m.AllocatedCount(), m.Size()-1)
	}
	// The freed ring is allocatable again; the pin is not.
	if err := m.AllocateSub(s); err == nil {
		t.Fatal("re-allocation over the pin succeeded")
	}
	if err := m.Recover(dead); err != nil {
		t.Fatal(err)
	}
	if err := m.AllocateSub(s); err != nil {
		t.Fatalf("re-allocation after recovery: %v", err)
	}

	// Per-node variant.
	m2 := New(8, 8)
	nodes := SubAt(0, 0, 3, 1).Nodes()
	if err := m2.Allocate(nodes); err != nil {
		t.Fatal(err)
	}
	if err := m2.Fail(Coord{1, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := m2.Release(nodes); err != nil {
		t.Fatalf("per-node release around the pin: %v", err)
	}
	if !m2.Busy(Coord{1, 0, 0}) || m2.FreeCount() != m2.Size()-1 {
		t.Fatalf("pinned cell freed by Release\n%s", m2)
	}
	// Releasing the bare pin itself is an error.
	if err := m2.Release([]Coord{{1, 0, 0}}); err == nil {
		t.Fatal("release of a bare pin succeeded")
	}
}

// TestRecoverUnderLiveAllocation: recovering a cell whose allocation is
// still live keeps the cell busy until that allocation releases it.
func TestRecoverUnderLiveAllocation(t *testing.T) {
	m := New(6, 6)
	s := SubAt(0, 0, 2, 2)
	if err := m.AllocateSub(s); err != nil {
		t.Fatal(err)
	}
	c := Coord{1, 1, 0}
	if err := m.Fail(c); err != nil {
		t.Fatal(err)
	}
	if err := m.Recover(c); err != nil {
		t.Fatal(err)
	}
	if !m.Busy(c) || m.Pinned(c) {
		t.Fatalf("recovered cell busy=%v pinned=%v, want busy unpinned", m.Busy(c), m.Pinned(c))
	}
	if err := m.ReleaseSub(s); err != nil {
		t.Fatal(err)
	}
	if m.FreeCount() != m.Size() {
		t.Fatalf("free=%d after release, want %d", m.FreeCount(), m.Size())
	}
}

// TestFaultCloneResetString: clones carry the pins, Reset recovers
// them, and the renderer marks failed processors distinctly.
func TestFaultCloneResetString(t *testing.T) {
	m := New3D(5, 4, 2)
	if err := m.AllocateSub(SubAt3D(0, 0, 0, 2, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Fail(Coord{1, 1, 0}); err != nil { // overlay
		t.Fatal(err)
	}
	if err := m.Fail(Coord{4, 3, 1}); err != nil { // bare pin
		t.Fatal(err)
	}
	n := m.Clone()
	if n.String() != m.String() {
		t.Fatalf("clone renders differently:\n%s\nvs\n%s", n, m)
	}
	if n.PinnedCount() != 2 || n.AllocatedCount() != m.AllocatedCount() {
		t.Fatalf("clone pins=%d alloc=%d, want 2/%d", n.PinnedCount(), n.AllocatedCount(), m.AllocatedCount())
	}
	// The clone's pins are independent state.
	if err := n.Recover(Coord{4, 3, 1}); err != nil {
		t.Fatal(err)
	}
	if !m.Pinned(Coord{4, 3, 1}) {
		t.Fatal("recovering the clone unpinned the original")
	}
	if got := strings.Count(m.String(), "x"); got != 2 {
		t.Fatalf("String renders %d 'x' cells, want 2:\n%s", got, m)
	}
	m.Reset()
	if m.PinnedCount() != 0 || m.FreeCount() != m.Size() {
		t.Fatalf("Reset kept pins=%d free=%d", m.PinnedCount(), m.FreeCount())
	}
	checkTables(t, m)
}

// TestTorusSeamPinSurvivesWrappedRelease: a failure inside the wrapped
// piece of a seam-crossing placement survives the placement's release,
// and seam-crossing fit queries refuse the pinned band afterwards.
func TestTorusSeamPinSurvivesWrappedRelease(t *testing.T) {
	m := NewTorus(8, 8)
	s := SubAt(6, 0, 4, 2) // wraps the x seam: pieces at x=6..7 and x=0..1
	pieces := m.SplitWrap(s)
	if len(pieces) != 2 {
		t.Fatalf("SplitWrap(%v) = %d pieces, want 2", s, len(pieces))
	}
	for _, p := range pieces {
		if err := m.AllocateSub(p); err != nil {
			t.Fatal(err)
		}
	}
	dead := Coord{0, 1, 0} // inside the wrapped piece
	if err := m.Fail(dead); err != nil {
		t.Fatal(err)
	}
	for i := len(pieces) - 1; i >= 0; i-- {
		if err := m.ReleaseSub(pieces[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !m.Busy(dead) || !m.Pinned(dead) {
		t.Fatalf("seam pin freed by wrapped release\n%s", m)
	}
	if m.FitsAt(6, 0, 4, 2) {
		t.Fatal("FitsAt crosses the seam over a pinned cell")
	}
	if err := m.Recover(dead); err != nil {
		t.Fatal(err)
	}
	if !m.FitsAt(6, 0, 4, 2) {
		t.Fatal("FitsAt refuses the seam band after recovery")
	}
}

// allocChurn3D places one FirstFit cuboid if any fits, the shared tail
// of the fault churn step.
func allocChurn3D(t *testing.T, m *Mesh, rng *rand.Rand) {
	t.Helper()
	w := 1 + rng.Intn(max(1, m.W()/3))
	l := 1 + rng.Intn(max(1, m.L()/3))
	h := 1 + rng.Intn(m.H())
	if s, ok := m.FirstFit3D(w, l, h); ok {
		for _, p := range m.SplitWrap(s) {
			if err := m.AllocateSub(p); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// faultChurnStep is churnStep with failures and recoveries mixed in:
// random cells fail (live allocations keep running under the overlay),
// random pins recover, non-pinned busy cells release, and FirstFit
// placements keep the occupancy mixed.
func faultChurnStep(t *testing.T, m *Mesh, rng *rand.Rand, pins *[]Coord) {
	t.Helper()
	r := rng.Intn(8)
	if r == 0 && m.PinnedCount() < m.Size()/4 {
		for tries := 0; tries < 64; tries++ {
			c := Coord{rng.Intn(m.W()), rng.Intn(m.L()), rng.Intn(m.H())}
			if !m.Pinned(c) {
				if err := m.Fail(c); err != nil {
					t.Fatal(err)
				}
				*pins = append(*pins, c)
				return
			}
		}
	}
	if r == 1 && len(*pins) > 0 {
		i := rng.Intn(len(*pins))
		c := (*pins)[i]
		(*pins)[i] = (*pins)[len(*pins)-1]
		*pins = (*pins)[:len(*pins)-1]
		if err := m.Recover(c); err != nil {
			t.Fatal(err)
		}
		return
	}
	if r < 5 && m.BusyCount() > m.PinnedCount() {
		for tries := 0; tries < 64; tries++ {
			c := Coord{rng.Intn(m.W()), rng.Intn(m.L()), rng.Intn(m.H())}
			if m.Busy(c) && !m.Pinned(c) {
				if err := m.Release([]Coord{c}); err != nil {
					t.Fatal(err)
				}
				return
			}
		}
	}
	allocChurn3D(t, m, rng)
}

// runShardedFaultMatrix is runShardedMatrix on churn-plus-failure
// traces: for every worker count, the sharded searches must return
// exactly the serial answers while failures and recoveries land
// between searches, and the index must stay oracle-sound.
func runShardedFaultMatrix(t *testing.T, build func() *Mesh, steps int) {
	t.Helper()
	if testing.Short() {
		steps = steps / 4
	}
	for _, workers := range shardWorkerCounts {
		m := build()
		sh := NewSharded(m, workers)
		rng := rand.New(rand.NewSource(int64(131 + workers)))
		var pins []Coord
		for i := 0; i < steps; i++ {
			faultChurnStep(t, m, rng, &pins)
			w := 1 + rng.Intn(m.W())
			l := 1 + rng.Intn(m.L())
			h := 1 + rng.Intn(m.H())
			compareSearches(t, m, sh, w, l, h)
			if i%20 == 19 {
				checkTables(t, m)
			}
		}
		sh.Close()
	}
}

func TestShardedMatchesSerialUnderFaults2D(t *testing.T) {
	runShardedFaultMatrix(t, func() *Mesh { return New(48, 40) }, 120)
}

func TestShardedMatchesSerialUnderFaultsTorus(t *testing.T) {
	runShardedFaultMatrix(t, func() *Mesh { return NewTorus(40, 36) }, 120)
}

func TestShardedMatchesSerialUnderFaults3D(t *testing.T) {
	runShardedFaultMatrix(t, func() *Mesh { return New3D(16, 16, 8) }, 120)
}
