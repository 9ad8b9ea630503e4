package mesh

import "slices"

// This file implements the constrained-largest search behind
// LargestFree and LargestFree3D: one search for the planar mesh, the
// torus and the 3D mesh, a planar mesh being the depth-1 case. The
// per-anchor scans it replaces (kept in reference_test.go as
// largestFreeScan, torusLargestFreeScan and largestFreeScan3D, the
// differential references) grow a box from every anchor; the sweep
// here is one maximal-rectangle-in-histogram pass per (base plane,
// depth) projection, O(W·L) each — over the doubled seam band on the
// torus.
//
// The search must return exactly what the scans return — max capped
// volume, then least side spread (spread3), then (z, y, x)-first base,
// the smaller depth and then the smaller length winning at an equal
// base — so it runs in phases built on one reduction (the equivalence
// argument lives in docs/occupancy-index.md §6):
//
//  1. The sweep computes MW(d, l), the width of the widest free
//     (wrap-aware on a torus) box at least l long and d deep. Every
//     capped candidate of the scan of length l and depth d has width
//     min(minRun, maxW, maxVol/(l·d)) — at most fw(d, l) = min(MW(d, l),
//     maxW, maxVol/(l·d)), which is achieved — so the best capped
//     (volume, spread) pair over all anchors is the best over (d, l) of
//     (fw·l·d, spread3(fw, l, d)), an O(maxH·maxL) fold.
//  2. A scan candidate ties the winning pair only if its anchor admits
//     a free fw(d, l) x l x d box for one of the winning (d, l), so the
//     scan's winner is the first FirstFit3D base among those shapes.
//
// The probe phase short-circuits both: candidate (volume, spread) pairs
// are probed best-first, descending from the occupancy-blind ideal
// (idealVolume), and the first pair with a placeable shape is the
// answer — the sweep never runs, the common case for lightly loaded
// meshes and, through the release-epoch memoization below, for the
// tail carves of a GABL request. On depth 1 the pairs are the planar
// (area, |w−l|) pairs: spread3(w, l, 1) ranks equal-area shapes as
// |w−l| does.

// histScratch holds the sweep's reusable buffers plus the search's
// release-epoch memoization, lazily sized on first use so meshes that
// never run a constrained-largest search carry no extra memory.
//
// The memoization rests on monotonicity: allocations only shrink the
// free space, so until the next release (Mesh.releaseEpoch) a failed
// shape probe stays failed and a computed MW table stays a valid upper
// bound. GABL's carve loop — allocate piece, search again, allocate —
// is exactly this regime, so the tail carves of one request inherit
// everything its first searches learned.
type histScratch struct {
	heights []int      // column free-run heights, one per (doubled) column
	stackS  []int      // monotonic stack: span start positions
	stackH  []int      // monotonic stack: bar heights
	proj    []uint64   // AND-projection of a slab deeper than one plane
	shapes  []boxShape // the probe phase's shapes of one volume

	// mw is the MW table of the last sweep, mw[d*(sweepMaxL+1)+l] for d
	// in 1..sweepMaxH and l in 1..sweepMaxL; sweepMaxL == 0 means none.
	mw         []int
	sweepMaxL  int
	sweepMaxH  int
	sweepEpoch uint64 // release epoch mw was swept at

	failed      [maxFailedShapes][3]int // antichain of refuted (w, l, d)
	nFailed     int
	failedEpoch uint64

	// scan is the serial window scans' word scratch (search.go). Its
	// seam band doubles as the torus sweep's band row — safe to share
	// because the search runs its phases strictly in sequence, so no
	// FirstFit3D probe or locate runs while a sweep holds the band.
	scan scanScratch
}

// boxShape is one w x l x d candidate shape of the probe phase and its
// spread3.
type boxShape struct{ w, l, d, spr int }

// maxFailedShapes bounds the refuted-shape frontier; beyond it new
// failures are simply not recorded (a cost bound, never a correctness
// one).
const maxFailedShapes = 24

// noteRelease invalidates the alloc-monotone memoization: something
// became free, so refuted shapes may fit and the cached MW may
// under-report. Called by every mutation path that frees processors.
func (m *Mesh) noteRelease() { m.releaseEpoch++ }

// frontier returns the refuted-shape antichain, emptying it first when
// a release intervened since it was built.
func (m *Mesh) frontier() [][3]int {
	h := &m.hist
	if h.failedEpoch != m.releaseEpoch {
		h.nFailed, h.failedEpoch = 0, m.releaseEpoch
	}
	return h.failed[:h.nFailed]
}

// refuted reports whether shape w x l x d is known not to fit: it
// contains a shape that failed a probe since the last release.
// O(frontier).
func (m *Mesh) refuted(w, l, d int) bool {
	for _, f := range m.frontier() {
		if w >= f[0] && l >= f[1] && d >= f[2] {
			return true
		}
	}
	return false
}

// noteRefuted records a failed shape probe, keeping the frontier an
// antichain: entries dominated by the newcomer are dropped, and a
// dominated newcomer is not stored.
func (m *Mesh) noteRefuted(w, l, d int) {
	keep := 0
	for _, f := range m.frontier() {
		if f[0] <= w && f[1] <= l && f[2] <= d {
			return // newcomer dominated: already covered
		}
		if !(f[0] >= w && f[1] >= l && f[2] >= d) {
			m.hist.failed[keep] = f
			keep++
		}
	}
	m.hist.nFailed = keep
	if keep < maxFailedShapes {
		m.hist.failed[keep] = [3]int{w, l, d}
		m.hist.nFailed++
	}
}

// Probe-phase budgets: bestFirstProbe gives up after this many
// FirstFit3D probes (each exact, each Ω(rows scanned)) or examined
// volumes, handing the call to the sweep. Budgets bound cost only — a
// probe hit is the exact answer at any budget, and budget exhaustion
// changes nothing but which machinery computes the same result.
const (
	probeBudget  = 16
	volumeBudget = 1024
)

// largestFree is LargestFree3D behind its cap clamps: caps are
// positive and no larger than the mesh sides.
func (m *Mesh) largestFree(maxW, maxL, maxH, maxVol int) (Submesh, bool) {
	// Bound and memo: the cached sweep bounds this call's best volume
	// from above while no release intervened; zero means no candidate
	// can exist under the caps at all.
	startVol := idealVolume(maxW, maxL, maxH, maxVol)
	if m.hist.sweepMaxL > 0 && m.hist.sweepEpoch == m.releaseEpoch {
		ub, _ := m.foldMW(maxW, maxL, maxH, maxVol)
		if ub == 0 {
			return Submesh{}, false
		}
		startVol = min(startVol, ub)
	}

	// Probe: the first (volume, spread) pair with a placeable shape is
	// the optimum — every strictly better pair was just proven empty —
	// so a hit answers the call in a handful of pruned first-fit
	// searches instead of a mesh sweep.
	if s, ok, decided := m.bestFirstProbe(startVol, maxW, maxL, maxH); decided {
		return s, ok
	}

	// Sweep for MW(d, l), then fold the capped (volume, spread) optimum.
	m.sweepMW(maxL, maxH)
	vol, spr := m.foldMW(maxW, maxL, maxH, maxVol)
	if vol == 0 {
		return Submesh{}, false
	}

	// Locate: the scan's winner is the first base admitting a winning
	// shape, in the scan's own order (placedBefore).
	var best Submesh
	found := false
	for d := 1; d <= maxH; d++ {
		for l := 1; l <= maxL; l++ {
			w := cappedWidth(m.mwAt(d, l), l, d, maxW, maxVol)
			if w == 0 || w*l*d != vol || spread3(w, l, d) != spr {
				continue
			}
			s, ok := m.FirstFit3D(w, l, d)
			if !ok {
				// MW(d, l) >= w guarantees a free w x l x d box exists;
				// FirstFit3D not finding one means the sweep and the
				// search disagree on occupancy.
				panic("mesh: histogram sweep found no base for its best shape")
			}
			if !found || placedBefore(s, best) {
				best, found = s, true
			}
		}
	}
	return best, true
}

// placedBefore reports whether candidate s precedes t in the scans'
// order: (z, y, x)-first base, then the smaller depth, then the
// smaller length at an equal base.
func placedBefore(s, t Submesh) bool {
	switch {
	case s.Z1 != t.Z1:
		return s.Z1 < t.Z1
	case s.Y1 != t.Y1:
		return s.Y1 < t.Y1
	case s.X1 != t.X1:
		return s.X1 < t.X1
	case s.H() != t.H():
		return s.H() < t.H()
	}
	return s.L() < t.L()
}

// idealVolume returns the best capped volume conceivable under the
// caps, occupancy aside: the largest w·l·d with each side within its
// cap and w·l·d <= maxVol.
func idealVolume(maxW, maxL, maxH, maxVol int) int {
	best := 0
	for d := 1; d <= maxH; d++ {
		for l := 1; l <= maxL; l++ {
			if v := cappedWidth(maxW, l, d, maxW, maxVol) * l * d; v > best {
				best = v
			}
		}
	}
	return best
}

// cappedWidth clips width w of an l-long, d-deep box to the caps: at
// most maxW, and no wider than the volume cap allows.
func cappedWidth(w, l, d, maxW, maxVol int) int {
	if w > maxW {
		w = maxW
	}
	if w*l*d > maxVol {
		w = maxVol / (l * d)
	}
	return w
}

// bestFirstProbe enumerates candidate (volume, spread) pairs best
// first — volume descending from the given bound (at most the
// occupancy-blind ideal), spread ascending within a volume — and
// probes each pair's shapes with FirstFit3D. The first pair with a
// placeable shape is exactly the scan's winner: a free w x l x d box
// whose capped candidate were wider would place a strictly
// larger-volume shape, which an earlier (failed) pair already ruled
// out, so the hit shape is the candidate shape verbatim and the pair
// ordering matches the scan's (volume, spread) preference. Within the
// pair, the scan's anchor-then-(d, l) order picks the hit that
// placedBefore ranks first. decided is false when the budgets ran out
// (the sweep must settle the call); an exhausted candidate space — no
// free processor — is decided as not found.
func (m *Mesh) bestFirstProbe(startVol, maxW, maxL, maxH int) (best Submesh, found, decided bool) {
	probes, vols := probeBudget, volumeBudget
	long := max(maxW, maxL)
	// Candidates never exceed the free count, and no shape is wider
	// than the widest free run of any row — both read straight off the
	// index and discard whole swaths of the pair space for free.
	if m.freeCount < startVol {
		startVol = m.freeCount
	}
	// The repair-free row bound (looseRowBound) is all a filter needs —
	// repairing every stale row here would cost the O(W·L) this phase
	// exists to avoid.
	widestRun := 0
	for r := 0; r < m.rows(); r++ {
		if b := m.looseRowBound(r); b > widestRun {
			widestRun = b
		}
	}
	if widestRun == 0 {
		return Submesh{}, false, true // no free processor at all
	}
	// The enumeration descends one volume at a time, so its integer
	// root follows along in amortized O(1) instead of a fresh Newton run.
	root := intSqrt(startVol)
	for vol := startVol; vol >= 1; vol-- {
		for root*root > vol {
			root--
		}
		if vols--; vols < 0 {
			return Submesh{}, false, false
		}
		shapes := m.shapesOf(vol, root, maxW, maxL, maxH, long)
		for i := 0; i < len(shapes); {
			// Budget is checked per pair, never mid-pair: a hit must
			// always complete its pair's probes for the base tie-break.
			if probes <= 0 {
				return Submesh{}, false, false
			}
			j := i
			for ; j < len(shapes) && shapes[j].spr == shapes[i].spr; j++ {
				c := shapes[j]
				// Refuted shapes — a failed probe refutes every shape
				// containing it — persist on the mesh across calls until
				// the next release, so GABL's tail carves inherit what
				// the first carve's probes learned.
				if c.w > widestRun || m.refuted(c.w, c.l, c.d) {
					continue
				}
				probes--
				s, ok := m.FirstFit3D(c.w, c.l, c.d)
				if !ok {
					m.noteRefuted(c.w, c.l, c.d)
					continue
				}
				if !found || placedBefore(s, best) {
					best, found = s, true
				}
			}
			if found {
				return best, true, true
			}
			i = j
		}
	}
	return Submesh{}, false, true // candidate space exhausted: no fit
}

// shapesOf lists the w x l x d shapes of volume vol within the caps,
// sorted by spread, into the mesh's scratch; root is intSqrt(vol) and
// long the larger of maxW and maxL. Depth-1 shapes come out already
// sorted — a falling short side a raises both the long side and the
// spread — so only deeper caps sort.
func (m *Mesh) shapesOf(vol, root, maxW, maxL, maxH, long int) []boxShape {
	out := m.hist.shapes[:0]
	for d := 1; d <= maxH; d++ {
		area, a := vol, root
		if d > 1 {
			if vol%d != 0 {
				continue
			}
			area = vol / d
			a = intSqrt(area)
		}
		// Shapes of this area within the caps need a short side of at
		// least area/long; most areas have none and cost O(1).
		for aMin := (area + long - 1) / long; a >= aMin; a-- {
			if area%a != 0 {
				continue
			}
			b := area / a
			if b <= maxW && a <= maxL {
				out = append(out, boxShape{b, a, d, spread3(b, a, d)})
			}
			if a != b && a <= maxW && b <= maxL {
				out = append(out, boxShape{a, b, d, spread3(a, b, d)})
			}
		}
	}
	if maxH > 1 {
		slices.SortFunc(out, func(p, q boxShape) int { return p.spr - q.spr })
	}
	m.hist.shapes = out
	return out
}

// intSqrt returns the integer square root of n >= 0.
func intSqrt(n int) int {
	if n <= 0 {
		return 0
	}
	r := n
	x := (r + 1) / 2
	for x < r {
		r = x
		x = (x + n/x) / 2
	}
	return r
}

// mwAt reads MW(d, l) off the cached table. A table covering fewer
// depths or lengths than asked answers with its last entry, an upper
// bound: a box is never wider for being deeper or longer.
func (m *Mesh) mwAt(d, l int) int {
	h := &m.hist
	return h.mw[min(d, h.sweepMaxH)*(h.sweepMaxL+1)+min(l, h.sweepMaxL)]
}

// foldMW folds the cached MW table into the best capped (volume,
// spread) under the caps. Fresh from a sweep covering the caps, it is
// exact. From an earlier sweep in the current release epoch it bounds
// the volume from above: allocations only shrink MW.
func (m *Mesh) foldMW(maxW, maxL, maxH, maxVol int) (vol, spr int) {
	for d := 1; d <= maxH; d++ {
		for l := 1; l <= maxL; l++ {
			mw := m.mwAt(d, l)
			if mw == 0 {
				break // MW is a suffix max: longer boxes only narrower
			}
			w := cappedWidth(mw, l, d, maxW, maxVol)
			if w == 0 {
				continue
			}
			if v, s := w*l*d, spread3(w, l, d); v > vol || (v == vol && s < spr) {
				vol, spr = v, s
			}
		}
	}
	return vol, spr
}

// sweepMW computes the MW table for lengths 1..maxL and depths
// 1..maxH into the mesh's scratch and remembers it: until the next
// release, allocations only shrink MW, so the table bounds every later
// call's search (foldMW) — often proving the next carve needs no
// sweep. Every (base plane, depth) slab is projected to one plane —
// a column is free iff free in every plane of the slab — and swept
// (sweepProjection). A depth-1 projection is the plane's own words,
// read in place; a deeper one is one word-wise AND per added plane
// into proj. O(W·L) per projection, allocation-free once the scratch
// exists.
func (m *Mesh) sweepMW(maxL, maxH int) {
	stride := maxL + 1
	mw := sizedScratch(&m.hist.mw, (maxH+1)*stride)
	clear(mw)
	pw := m.l * m.wpr
	for z0 := 0; z0 < m.h; z0++ {
		proj := m.freeW[z0*pw : (z0+1)*pw]
		for d := 1; d <= maxH && z0+d <= m.h; d++ {
			if d > 1 {
				p := sizedWordScratch(&m.hist.proj, pw)
				for i, v := range m.freeW[(z0+d-1)*pw : (z0+d)*pw] {
					p[i] = proj[i] & v
				}
				proj = p
			}
			if !m.sweepProjection(proj, maxL, mw[d*stride:(d+1)*stride]) {
				break // projection fully busy: deeper slabs only busier
			}
		}
	}
	// A box of length l contains one of every lesser length, so MW is
	// the suffix max of the per-length records.
	for d := 1; d <= maxH; d++ {
		row := mw[d*stride : (d+1)*stride]
		for l := maxL - 1; l >= 1; l-- {
			row[l] = max(row[l], row[l+1])
		}
	}
	m.hist.sweepMaxL, m.hist.sweepMaxH, m.hist.sweepEpoch = maxL, maxH, m.releaseEpoch
}

// sweepProjection sweeps the rows of one projected plane (L rows of
// wpr words) with a monotonic stack, raising rec[l] to the width of
// every free rectangle of length l (capped: heights stop at maxL)
// whose bottom edge a row carries. It reports whether the projection
// has any free cell. On a torus the sweep runs over the doubled seam
// band — 2W−wide columns and 2L−1 rows, widths capped at W — so
// wrap-crossing rectangles appear as contiguous spans; every
// doubled-band rectangle maps back to a genuine wrapped placement and
// vice versa (docs/occupancy-index.md §6). A torus band row is one
// word rotation of its plane row (doubleRowInto), and sweepRowWords
// advances the heights and the stack run by run instead of column by
// column (§9).
func (m *Mesh) sweepProjection(proj []uint64, maxL int, rec []int) bool {
	cols, rows := m.w, m.l
	var band []uint64
	if m.torus {
		cols, rows = 2*m.w, 2*m.l-1
		band = sizedWordScratch(&m.hist.scan.band, wordsPerRow(cols))
	}
	heights := sizedScratch(&m.hist.heights, cols)
	stackS := sizedScratch(&m.hist.stackS, cols+1)
	stackH := sizedScratch(&m.hist.stackH, cols+1)
	clear(heights)
	anyFree := false
	for r := 0; r < rows; r++ {
		ry := r
		if ry >= m.l {
			ry -= m.l
		}
		// Degenerate rows shortcut the stack. A fully busy row zeroes
		// every height and records nothing. And when the NEXT band row
		// is fully free, every rectangle this row would record recurs
		// there with the same width and a length one larger (or capped
		// equal), so its record is dominated through the suffix max —
		// only the heights need maintaining here.
		words := proj[ry*m.wpr : (ry+1)*m.wpr]
		if firstMaskBit(words, m.w) < 0 {
			clear(heights)
			continue
		}
		anyFree = true
		if m.torus {
			m.doubleRowInto(band, words)
			words = band
		}
		if r+1 < rows {
			ny := r + 1
			if ny >= m.l {
				ny -= m.l
			}
			if fullyFree(proj[ny*m.wpr:(ny+1)*m.wpr], m.w) {
				bumpHeightsWords(words, cols, maxL, heights)
				continue
			}
		}
		sweepRowWords(words, cols, maxL, m.w, heights, stackS, stackH, rec)
	}
	return anyFree
}

// sizedScratch returns *buf with at least n elements, growing it (and
// keeping the growth for future calls) only when needed.
func sizedScratch(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	return (*buf)[:n]
}
