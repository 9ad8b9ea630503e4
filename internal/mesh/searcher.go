package mesh

// This file defines the search-executor layer (PR 5): every allocation
// strategy runs its candidate scans through a Searcher instead of
// calling the Mesh search methods directly. Two executors implement the
// interface — Serial, a thin binding to the existing scans, and Sharded
// (sharded.go), which partitions the BestFit scan's base rows into
// contiguous stripes and runs the same serial scan on each stripe on a
// pool of workers. The two are result-identical by construction
// (docs/occupancy-index.md §8), so a strategy's placements never
// depend on which executor — or how many workers — ran its searches.

// Searcher executes the free-space searches of one mesh. The three
// searches mirror the Mesh entry points FirstFit3D / BestFit3D /
// LargestFree3D (a 2D search is the h == 1 — respectively maxH == 1 —
// case, bit-identical to the planar scans); FrameSlide mirrors
// Mesh.SlideFit. Implementations are bound to a single mesh and are
// not safe for concurrent use: one simulation owns one mesh and one
// searcher, and every search runs to completion before the next
// mutation or search begins.
type Searcher interface {
	// FirstFit returns the first free w x l x h cuboid in (z, y, x)
	// base order, exactly Mesh.FirstFit3D.
	FirstFit(w, l, h int) (Submesh, bool)
	// BestFit returns the boundary-hugging best free w x l x h cuboid,
	// exactly Mesh.BestFit3D.
	BestFit(w, l, h int) (Submesh, bool)
	// LargestFree returns the capped largest free cuboid, exactly
	// Mesh.LargestFree3D.
	LargestFree(maxW, maxL, maxH, maxVol int) (Submesh, bool)
	// FrameSlide returns the first free frame in the frame-sliding
	// stride pattern, exactly Mesh.SlideFit.
	FrameSlide(w, l, h int) (Submesh, bool)
	// Mesh returns the mesh the searcher is bound to.
	Mesh() *Mesh
	// Workers returns the number of scan workers the searcher uses; 1
	// means every scan is serial.
	Workers() int
	// Close releases executor resources (the sharded executor's worker
	// goroutines). The searcher must not be used after Close; closing a
	// Serial searcher is a no-op.
	Close()
}

// Serial is the trivial Searcher: every search is the mesh's own serial
// scan on the calling goroutine. It is the executor every strategy
// defaults to.
type Serial struct {
	m *Mesh
}

// NewSerial binds a serial search executor to m.
func NewSerial(m *Mesh) Serial { return Serial{m: m} }

// FirstFit implements Searcher.
func (s Serial) FirstFit(w, l, h int) (Submesh, bool) { return s.m.FirstFit3D(w, l, h) }

// BestFit implements Searcher.
func (s Serial) BestFit(w, l, h int) (Submesh, bool) { return s.m.BestFit3D(w, l, h) }

// LargestFree implements Searcher.
func (s Serial) LargestFree(maxW, maxL, maxH, maxVol int) (Submesh, bool) {
	return s.m.LargestFree3D(maxW, maxL, maxH, maxVol)
}

// FrameSlide implements Searcher.
func (s Serial) FrameSlide(w, l, h int) (Submesh, bool) { return s.m.SlideFit(w, l, h) }

// Mesh implements Searcher.
func (s Serial) Mesh() *Mesh { return s.m }

// Workers implements Searcher.
func (s Serial) Workers() int { return 1 }

// Close implements Searcher.
func (s Serial) Close() {}

// SlideFit returns the first entirely free w x l x h frame in the
// frame-sliding stride pattern (Chuang & Tzeng): candidate bases step by
// the frame sides from the origin — z outer, then y, then x — so a full
// scan costs O((W/w)·(L/l)·(H/h)) O(1) probes regardless of frame size.
// On a torus the stride pattern keeps going past the edges (the last
// frame of a row or column wraps around the seam instead of being
// dropped; the torus fabric is depth-1, so the z stride degenerates).
func (m *Mesh) SlideFit(w, l, h int) (Submesh, bool) {
	if !m.shapeOK(w, l, h) {
		return Submesh{}, false
	}
	ymax, xmax := m.l-l, m.w-w
	if m.torus {
		ymax, xmax = m.l-1, m.w-1
	}
	zmax := m.h - h
	for z := 0; z <= zmax; z += h {
		for y := 0; y <= ymax; y += l {
			for x := 0; x <= xmax; x += w {
				s := SubAt3D(x, y, z, w, l, h)
				if m.SubFree(s) {
					return s, true
				}
			}
		}
	}
	return Submesh{}, false
}
