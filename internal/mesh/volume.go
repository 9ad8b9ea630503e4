package mesh

// This file is the 3D query and search layer of the occupancy index
// (PR 4). The authoritative state is dimension-general (mesh.go): the
// bitboard words are per-(row, plane), the per-row aggregates stack
// into the z-axis planeMax aggregate, and cuboid occupancy queries
// (SubFree/FitsAt/BusyInRect/FreeInRect) are masked word compares and
// pop-counts over the slab's rows. Here live the depth-general entry
// points of the searches:
//
//   - FirstFit3D / BestFit3D, the entry points of the one window scan
//     (windowScan, search.go) that serves every fabric — the planar
//     FirstFit/BestFit delegate to them with h = 1 — plus the plane
//     filter (planeFitsWidth) and the face score (boundaryPressure3D)
//     the scan uses on slabs;
//   - LargestFree3D, the entry point of the one constrained-largest
//     search (largestFree, histogram.go) — the planar LargestFree
//     delegates to it with maxH = 1 — and spread3, the shape
//     tie-breaker of that search and of its reference scans.

// planeMaxRescan re-derives plane z's aggregate from the per-row
// bounds. The row bounds themselves may be stale-high, so the result
// stays an upper bound — which is all the plane filter needs — but it
// sheds the over-estimate left by a lowered row. Called by searches on
// stale planes only.
func (m *Mesh) planeMaxRescan(z int) {
	max := 0
	for r := z * m.l; r < (z+1)*m.l; r++ {
		if m.rowMax[r] > max {
			max = m.rowMax[r]
		}
	}
	m.planeMax[z], m.planeStale[z] = max, false
}

// planeFitsWidth reports whether plane z can possibly hold a free run
// of width w. The stored aggregate bounds the true widest run from
// above even when stale, so a value below w rejects the plane in O(1);
// an inconclusive stale plane pays one O(L) re-derivation.
func (m *Mesh) planeFitsWidth(z, w int) bool {
	if m.planeMax[z] < w {
		return false
	}
	if m.planeStale[z] {
		m.planeMaxRescan(z)
	}
	return m.planeMax[z] >= w
}

// FitsAt3D reports whether the w x l x h cuboid based at (x, y, z)
// lies on the mesh and is entirely free: one masked word compare per
// plane-row, mirroring the planar FitsAt word path. The torus query
// layer is 2D-only, so on a torus any h other than 1 reports false and
// h == 1 defers to the wrap-aware FitsAt.
func (m *Mesh) FitsAt3D(x, y, z, w, l, h int) bool {
	if m.torus {
		return h == 1 && z == 0 && m.FitsAt(x, y, w, l)
	}
	if w <= 0 || l <= 0 || h <= 0 || x < 0 || y < 0 || z < 0 ||
		x+w > m.w || y+l > m.l || z+h > m.h {
		return false
	}
	for zz := z; zz < z+h; zz++ {
		for yy := y; yy < y+l; yy++ {
			if !m.rowFreeSpan(m.rowIdx(yy, zz), x, w) {
				return false
			}
		}
	}
	return true
}

// FirstFit3D returns the first (in (z, y, x) base order) free
// w x l x h cuboid — the contiguous first-fit search generalized with
// the depth axis (windowScan). On a depth-1 mesh it is the planar
// FirstFit; on the torus h must be 1.
func (m *Mesh) FirstFit3D(w, l, h int) (Submesh, bool) {
	if !m.shapeOK(w, l, h) {
		return Submesh{}, false
	}
	c, _, ok := m.windowScan(0, m.baseRows(l, h), w, l, h, &m.hist.scan, true)
	if !ok {
		return Submesh{}, false
	}
	return SubAt3D(c.X, c.Y, c.Z, w, l, h), true
}

// BestFit3D returns the free w x l x h cuboid whose placement touches
// the most busy-or-border processors across its six faces (the planar
// boundary-pressure score generalized from perimeter edges to faces).
// The (z, y, x)-first candidate wins ties. On a depth-1 mesh it is the
// planar BestFit.
func (m *Mesh) BestFit3D(w, l, h int) (Submesh, bool) {
	if !m.shapeOK(w, l, h) {
		return Submesh{}, false
	}
	c, _, ok := m.windowScan(0, m.baseRows(l, h), w, l, h, &m.hist.scan, false)
	if !ok {
		return Submesh{}, false
	}
	return SubAt3D(c.X, c.Y, c.Z, w, l, h), true
}

// boundaryPressure3D counts face-adjacent positions of s that abut the
// mesh border or a busy processor. Per plane, the one-row y faces are
// masked popcounts (busyRowSpanBits) and the one-column x faces one bit
// probe per row (busyColumn); the z faces are popcount passes over
// their plane (scanBusyBox). Faces falling off the mesh count whole as
// border. Edges and corners are not counted, matching the planar
// score's edge-only perimeter.
func (m *Mesh) boundaryPressure3D(s Submesh) int {
	w, l := s.W(), s.L()
	score := 0
	for z := s.Z1; z <= s.Z2; z++ {
		r1, r2 := m.rowIdx(s.Y1, z), m.rowIdx(s.Y2, z)
		if s.Y1 == 0 {
			score += w
		} else {
			score += m.busyRowSpanBits(r1-1, s.X1, s.X2)
		}
		if s.Y2 == m.l-1 {
			score += w
		} else {
			score += m.busyRowSpanBits(r2+1, s.X1, s.X2)
		}
		if s.X1 == 0 {
			score += l
		} else {
			score += m.busyColumn(s.X1-1, r1, r2)
		}
		if s.X2 == m.w-1 {
			score += l
		} else {
			score += m.busyColumn(s.X2+1, r1, r2)
		}
	}
	if s.Z1 == 0 {
		score += w * l
	} else {
		score += m.scanBusyBox(s.X1, s.Y1, s.Z1-1, s.X2, s.Y2, s.Z1-1)
	}
	if s.Z2 == m.h-1 {
		score += w * l
	} else {
		score += m.scanBusyBox(s.X1, s.Y1, s.Z2+1, s.X2, s.Y2, s.Z2+1)
	}
	return score
}

// busyColumn counts the busy cells of column x over plane-rows r1..r2:
// one bit probe per row, cheaper than a masked popcount pass for a
// one-column strip.
func (m *Mesh) busyColumn(x, r1, r2 int) int {
	n, bit := 0, uint(x&63)
	for i := r1*m.wpr + x>>6; r1 <= r2; r1++ {
		n += int(^m.freeW[i] >> bit & 1)
		i += m.wpr
	}
	return n
}

// spread3 is the 3D shape tie-breaker: the spread between the longest
// and shortest side. On depth-1 shapes it ranks equal-volume
// candidates exactly as the planar |w−l| skew does (for a fixed
// product both are monotone in the longer side), so the 2D and 3D
// preferences agree where they overlap.
func spread3(w, l, h int) int {
	lo, hi := w, w
	if l < lo {
		lo = l
	}
	if l > hi {
		hi = l
	}
	if h < lo {
		lo = h
	}
	if h > hi {
		hi = h
	}
	return hi - lo
}

// LargestFree3D returns the free cuboid of maximum volume subject to
// width <= maxW, length <= maxL, height <= maxH and volume <= maxVol.
// Ties prefer the smaller side spread (spread3) and then the first
// base in (z, y, x) order, smaller heights then lengths winning at an
// equal base — exactly the candidate and tie rules of the reference
// largestFreeScan3D (reference_test.go), which the differential tests
// hold it to. It runs the one constrained-largest search of every
// fabric (histogram.go).
func (m *Mesh) LargestFree3D(maxW, maxL, maxH, maxVol int) (Submesh, bool) {
	if maxW <= 0 || maxL <= 0 || maxH <= 0 || maxVol <= 0 {
		return Submesh{}, false
	}
	return m.largestFree(min(maxW, m.w), min(maxL, m.l), min(maxH, m.h), maxVol)
}
