package mesh

import (
	"iter"
	"math/bits"
)

// This file implements the free-rectangle searches used by the
// allocation strategies. FirstFit and BestFit on every fabric — the
// planar mesh, the 3D mesh and the torus, serial and sharded — run one
// candidate-base loop, windowScan. Candidate bases come off the
// bitboard (bitboard.go): the window rows' free words AND together,
// the shift-AND fit mask narrows them to width w, and the surviving
// bits are exactly the bases where the whole window is free —
// enumerated by TrailingZeros64 instead of probed one run at a time.
// The topology decides only three leaf helpers: the window-row check
// (windowRowFits), the fit-mask builder (fitMaskInto) and the score
// (boundaryPressure3D on a slab — on depth 1 its two z faces add the
// constant 2·w·l, so the planar ranking is unchanged — or
// torusBoundaryPressure). The run-table walk the mask replaced is kept in
// reference_test.go as blockedUntil, the reference the differential
// tests hold the mask enumeration to.

// scanScratch is the word scratch of one window scan: the slab fit
// mask (on the torus, the window AND it is rotated from) and the
// torus's doubled seam band. The mesh keeps one for its serial
// searches and every sharded worker its own, so concurrent stripes
// never share a buffer.
type scanScratch struct {
	mask []uint64 // wpr words
	band []uint64 // wordsPerRow(2W) words
}

// shapeOK reports whether a w x l x h request is positive and within
// the mesh sides — the precondition of every window scan.
func (m *Mesh) shapeOK(w, l, h int) bool {
	return w > 0 && l > 0 && h > 0 && w <= m.w && l <= m.l && h <= m.h
}

// baseRows counts the candidate base rows of a w x l x h window scan:
// every grid row on the torus, the fitting (z, y) pairs otherwise.
func (m *Mesh) baseRows(l, h int) int {
	if m.torus {
		return m.l
	}
	return (m.h - h + 1) * (m.l - l + 1)
}

// windowScan is the candidate-base loop of FirstFit and BestFit. It
// scans base rows [b0, b1) of a w x l x h window: on a slab base row b
// is the (z, y) pair b = z·(L−l+1) + y (a planar mesh is the depth-1
// slab); on the torus it is grid row y, and window rows wrap mod L.
// Each surviving base row's bases come off its fit mask in x order. In
// first mode the first free window wins; otherwise every free window
// is scored and the first maximal one wins. It returns the winner's
// base (a Coord, not a Submesh: the scan's per-candidate loop stays
// free of struct copies) and, in best mode, its score. The shape must
// satisfy shapeOK.
//
// Pruning skips only bases with no free window, so it never changes
// the answer: a window row too narrow for w rules out every base whose
// window holds it (nextBaseRow), and on a slab a plane too narrow for
// w rules out every z-window holding it.
//
// The row and plane checks repair stale aggregates lazily. After
// Sharded.prepare nothing is stale, so the scan only reads the mesh and
// workers may run it concurrently on disjoint stripes.
func (m *Mesh) windowScan(b0, b1, w, l, h int, sc *scanScratch, first bool) (base Coord, score int, ok bool) {
	ny := m.l
	if !m.torus {
		ny = m.l - l + 1
	}
	z, y := 0, b0
	if y >= ny {
		z, y = b0/ny, b0%ny
	}
	// zOK is the base plane whose z-window passed the plane filter. The
	// torus has none to pass: planeMax does not bound seam-crossing runs.
	zOK := -1
	if m.torus {
		zOK = 0
	}
	cleared := false // the previous base's window rows all passed
	score = -1
	for b := b0; b < b1; {
		if z != zOK {
			j := h - 1
			for j >= 0 && m.planeFitsWidth(z+j, w) {
				j--
			}
			if j >= 0 {
				z, y, cleared = z+j+1, 0, false
				b = z * ny
				continue
			}
			zOK = z
		}
		if y = m.nextBaseRow(y, z, w, l, h, ny, cleared); y == ny {
			z, y, cleared = z+1, 0, false
			b = z * ny
			continue
		}
		if b = z*ny + y; b >= b1 {
			break
		}
		cleared = true
	bases:
		for i, v := range m.fitMaskInto(sc, y, z, w, l, h) {
			x0 := i << 6
			for v != 0 {
				x := x0 + bits.TrailingZeros64(v)
				if x >= m.w {
					break bases // torus band's second copy: the same placements
				}
				v &= v - 1
				if first {
					return Coord{x, y, z}, 0, true
				}
				var s int
				if m.torus {
					s = m.torusBoundaryPressure(SubAt3D(x, y, z, w, l, h))
				} else {
					s = m.boundaryPressure3D(SubAt3D(x, y, z, w, l, h))
				}
				if s > score {
					base, score, ok = Coord{x, y, z}, s, true
				}
			}
		}
		if b, y = b+1, y+1; y == ny {
			z, y, cleared = z+1, 0, false
		}
	}
	return base, score, ok
}

// nextBaseRow returns the first base row >= y of plane z whose window
// rows all hold width w, or ny when none remains. A blocking row at
// window offset i lies in the window of every base y..y+i — also when
// it wraps past the torus seam — so the search resumes at y+i+1. When
// cleared, base y-1's window rows already passed and only row y+l-1 is
// new to the window: amortised O(1) row checks per base row.
func (m *Mesh) nextBaseRow(y, z, w, l, h, ny int, cleared bool) int {
	for y < ny {
		from := 0
		if cleared {
			from = l - 1
		}
		i := l - 1
		for i >= from && m.windowRowFits(y+i, z, w, h) {
			i--
		}
		if i < from {
			return y
		}
		y, cleared = y+i+1, false
	}
	return ny
}

// windowRowFits reports whether window row y can hold width w: on a
// slab in every plane of the z-window (rowFitsWidth); on the torus row
// y mod L under the wrap-aware bound (rowBoundFits).
func (m *Mesh) windowRowFits(y, z, w, h int) bool {
	if m.torus {
		if y >= m.l {
			y -= m.l
		}
		return m.rowBoundFits(y, w)
	}
	for r := m.rowIdx(y, z); h > 0; h-- {
		if !m.rowFitsWidth(r, w) {
			return false
		}
		r += m.l
	}
	return true
}

// fitMaskInto builds the width-w fit mask of the window based at row y,
// plane z into sc and returns it, or nil when some window column is
// nowhere free (windowMaskInto). On a slab bit x is set iff the cuboid
// based at (x, y, z) is free. On the torus the ANDed window rotates
// into its doubled seam band first, so wrapped spans read contiguously,
// and only bits below W are bases (a bit in [W, 2W) is the same wrapped
// placement seen from its second copy).
func (m *Mesh) fitMaskInto(sc *scanScratch, y, z, w, l, h int) []uint64 {
	mask := sizedWordScratch(&sc.mask, m.wpr)
	if !m.windowMaskInto(mask, y, z, l, h) {
		return nil
	}
	if m.torus {
		band := sizedWordScratch(&sc.band, wordsPerRow(2*m.w))
		m.doubleRowInto(band, mask)
		mask = band
	}
	fitMask(mask, w)
	return mask
}

// CandidatesRow yields, left to right, every base x in row y (plane 0)
// where the w x l sub-mesh based at (x, y) is entirely free — the set
// bits below W of the window's fit mask (fitMaskInto). On a torus every
// grid row is a base row and the extent wraps across both seams.
func (m *Mesh) CandidatesRow(y, w, l int) iter.Seq[int] {
	return func(yield func(int) bool) {
		last := m.l - l
		if m.torus {
			last = m.l - 1
		}
		if !m.shapeOK(w, l, 1) || y < 0 || y > last {
			return
		}
		for i, v := range m.fitMaskInto(&m.hist.scan, y, 0, w, l, 1) {
			base := i << 6
			for v != 0 {
				x := base + bits.TrailingZeros64(v)
				if x >= m.w || !yield(x) {
					return
				}
				v &= v - 1
			}
		}
	}
}

// FirstFit returns the first (row-major base order) free w x l sub-mesh,
// the classic contiguous first-fit search. On a torus the candidate
// space includes seam-crossing placements (the returned sub-mesh may
// have X2 >= W or Y2 >= L; resolve it with SplitWrap).
func (m *Mesh) FirstFit(w, l int) (Submesh, bool) { return m.FirstFit3D(w, l, 1) }

// BestFit returns the free w x l sub-mesh whose placement touches the
// most busy-or-border processors along its perimeter (Zhu-style best
// fit: prefer corners and crevices, preserving large free regions).
// The row-major-first candidate wins ties. On a torus the candidate
// space includes seam-crossing placements and the score counts busy
// neighbours only — a torus has no border to hug (see
// torusBoundaryPressure).
func (m *Mesh) BestFit(w, l int) (Submesh, bool) { return m.BestFit3D(w, l, 1) }

// LargestFree returns the free sub-mesh of maximum area subject to
// width <= maxW, length <= maxL and area <= maxArea. Ties prefer the
// more nearly square candidate and then row-major base order. This is
// the search at the heart of GABL: the first piece is capped by the
// request's sides, later pieces by the previous piece's sides, and all
// pieces by the processors still owed. On a torus the candidate space
// includes seam-crossing placements. It is the depth-1 LargestFree3D;
// the per-anchor scan the search replaced is kept in reference_test.go
// as largestFreeScan — the reference the differential tests hold it
// to, result for result.
func (m *Mesh) LargestFree(maxW, maxL, maxArea int) (Submesh, bool) {
	return m.LargestFree3D(maxW, maxL, 1, maxArea)
}

// LargestFreeAnywhere returns the unconstrained largest free sub-mesh
// (the largest free cuboid on a 3D mesh).
func (m *Mesh) LargestFreeAnywhere() (Submesh, bool) {
	return m.LargestFree3D(m.w, m.l, m.h, m.Size())
}

// FreeSeq yields the free processors plane by plane in row-major
// order, extracting free runs from the bitboard words so busy spans of
// any length cost one TrailingZeros64 hop and free runs are emitted
// directly.
func (m *Mesh) FreeSeq() iter.Seq[Coord] {
	return func(yield func(Coord) bool) {
		for r := 0; r < m.rows(); r++ {
			words := m.rowWords(r)
			y, z := r%m.l, r/m.l
			for x := 0; x < m.w; {
				x0 := maskNextFree(words, x, m.w)
				if x0 >= m.w {
					break
				}
				x1 := maskNextBusy(words, x0, m.w)
				for ; x0 < x1; x0++ {
					if !yield(Coord{x0, y, z}) {
						return
					}
				}
				x = x1 + 1 // the processor ending the run is busy
			}
		}
	}
}
