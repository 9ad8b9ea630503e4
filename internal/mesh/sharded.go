package mesh

import (
	"math/bits"
	"sync"
)

// This file implements the sharded search executor (PR 5): the
// BestFit scan is embarrassingly parallel across base rows once the
// reduction is made deterministic, so Sharded partitions the (z, y)
// base space into contiguous stripes, scans each stripe on a worker
// with per-worker scratch, and reduces the stripe-local winners in
// stripe order with the exact serial tie-break. Placements are
// therefore bit-identical to the serial scan — the argument lives in
// docs/occupancy-index.md §8. BestFit is the only search that scores
// every fitting base. The others stop at the first hit before a
// fan-out's wake-up could pay for itself, or (LargestFree's sweep) did
// not win end to end when striped, so Sharded runs them on the calling
// goroutine. The load rules:
//
//   - Workers are strictly read-only on the mesh. The serial scans
//     lazily repair stale aggregates (rowMaxRescan, planeMaxRescan)
//     mid-scan; a sharded search instead repairs owner-side before the
//     fan-out — prepare repairs every stale row and plane aggregate —
//     so workers prune with plain repair-free aggregate reads that are
//     exact, and every worker bound check skips exactly the windows
//     the serial scan skips. Occupancy itself is read straight off the
//     bitboard words, which no read-only scan ever mutates.
//
//   - The owner goroutine runs stripe 0 inline and every mutation
//     strictly between fan-outs, so no mutation is ever concurrent with
//     a worker scan.
//
//   - Per-worker scratch (fit masks, the torus seam band) is lazily
//     sized and reused forever, and the fan-out path uses only
//     pre-allocated channels and a WaitGroup, keeping steady-state
//     searches at 0 allocs/call like their serial counterparts.

// shardMinCells gates the fan-out: meshes below this size finish a
// serial scan in the time a wake-up costs, so the executor runs them
// inline. The gate is invisible in results — both paths are
// bit-identical — and only steers where the work runs.
const shardMinCells = 1024

// shardReq is the current fan-out's request, written by the owner
// before the workers wake (the channel send orders it before every
// worker read).
type shardReq struct {
	w, l, h int
}

// shardWorker is one worker's stripe assignment, result slots and
// reusable scratch. Slot i is written only by the goroutine running
// stripe i and read by the owner only after the fan-out joins.
type shardWorker struct {
	wake chan struct{}

	b0, b1 int // assigned base-row range [b0, b1)

	// Stripe-local winners, reduced by the owner in stripe order.
	sub   Submesh
	found bool
	score int

	// Reusable scratch: the bitboard masks (window fit mask, torus
	// window AND, doubled seam band) — per worker, so concurrent
	// stripes never share a buffer.
	winMask []uint64
	rowAnd  []uint64
	band    []uint64
}

// Sharded is the parallel Searcher: contiguous stripes of the (z, y)
// base space scanned by a pool of persistent workers, reduced with the
// serial tie-break order. It is bound to one mesh and, like the mesh,
// is not safe for concurrent use — one owner goroutine issues searches
// and mutations strictly in sequence, and the pool parallelizes only
// the read-only scan inside one search call.
type Sharded struct {
	m       *Mesh
	n       int
	workers []shardWorker

	req shardReq
	wg  sync.WaitGroup

	quit    chan struct{}
	started bool
	closed  bool
}

// NewSharded builds a sharded search executor with the given worker
// count bound to m. Worker goroutines start lazily on the first search
// large enough to fan out; Close releases them. A count below 2 yields
// an executor that always scans serially.
func NewSharded(m *Mesh, workers int) *Sharded {
	if workers < 1 {
		workers = 1
	}
	s := &Sharded{m: m, n: workers, quit: make(chan struct{})}
	s.workers = make([]shardWorker, workers)
	for i := range s.workers {
		s.workers[i].wake = make(chan struct{}, 1)
	}
	return s
}

// Mesh implements Searcher.
func (s *Sharded) Mesh() *Mesh { return s.m }

// Workers implements Searcher.
func (s *Sharded) Workers() int { return s.n }

// Close implements Searcher: it stops the worker goroutines. Close is
// idempotent; the executor must not search after it.
func (s *Sharded) Close() {
	if s.closed {
		return
	}
	s.closed = true
	close(s.quit)
}

// ensureStarted spawns the worker loops on first use, so an executor
// whose searches all gate to serial never owns a goroutine.
func (s *Sharded) ensureStarted() {
	if s.started {
		return
	}
	s.started = true
	for i := 1; i < s.n; i++ {
		go s.workerLoop(i)
	}
}

// workerLoop is one pool goroutine: wake, run the assigned stripe of
// the current request, report done, repeat until Close.
func (s *Sharded) workerLoop(id int) {
	w := &s.workers[id]
	for {
		select {
		case <-s.quit:
			return
		case <-w.wake:
			s.bestFitStripe(id)
			s.wg.Done()
		}
	}
}

// fanout runs the current request's k stripes: 1..k-1 on pool workers,
// stripe 0 inline on the owner, then joins. On return every worker
// slot is settled and the owner may mutate the mesh again.
func (s *Sharded) fanout(k int) {
	s.ensureStarted()
	s.wg.Add(k - 1)
	for i := 1; i < k; i++ {
		s.workers[i].wake <- struct{}{}
	}
	s.bestFitStripe(0)
	s.wg.Wait()
}

// assign splits B base rows into k contiguous stripes.
func (s *Sharded) assign(B, k int) {
	for i := 0; i < k; i++ {
		s.workers[i].b0, s.workers[i].b1 = i*B/k, (i+1)*B/k
	}
}

// shardCount decides how many stripes a scan over B base rows runs on:
// the full pool, or 1 (serial inline) when the pool, the base space or
// the mesh is too small to win from a fan-out.
func (s *Sharded) shardCount(B int) int {
	if s.n < 2 || B < s.n || s.m.Size() < shardMinCells {
		return 1
	}
	return s.n
}

// baseRows counts the candidate base rows of a w x l x h window scan:
// every grid row on the torus, the fitting (z, y) bases otherwise.
func (s *Sharded) baseRows(l, h int) int {
	m := s.m
	if m.torus {
		return m.l
	}
	return (m.h - h + 1) * (m.l - l + 1)
}

// prepare is the owner-side mutation pass before a window-scan
// fan-out: it repairs every stale row (and plane) aggregate, so the
// workers' repair-free bound checks prune exactly as hard as the
// serial scans' lazy repairs — and nothing in a worker ever needs to
// write. The stale scan is one bool per row; repairs amortize against
// the mutations that caused them, exactly like the serial laziness.
func (s *Sharded) prepare() {
	m := s.m
	for r := 0; r < m.rows(); r++ {
		if m.rowStale[r] {
			m.rowMaxRescan(r)
		}
	}
	for z := 0; z < m.h; z++ {
		if m.planeStale[z] {
			m.planeMaxRescan(z)
		}
	}
}

// FirstFit implements Searcher: Mesh.FirstFit3D on the calling
// goroutine. The row aggregates settle a miss, and the fit mask a hit,
// in less time than a fan-out's wake-up, so a first-fit scan never
// pays for striping.
func (s *Sharded) FirstFit(w, l, h int) (Submesh, bool) { return s.m.FirstFit3D(w, l, h) }

// BestFit implements Searcher: the sharded Mesh.BestFit3D. Every
// stripe keeps its first maximal-score candidate in scan order; the
// stripe-ordered reduce with a strictly-greater comparison reproduces
// the serial "first maximum in (z, y, x) order" winner exactly.
func (s *Sharded) BestFit(w, l, h int) (Submesh, bool) {
	m := s.m
	if w <= 0 || l <= 0 || h <= 0 || w > m.w || l > m.l || h > m.h {
		return Submesh{}, false
	}
	B := s.baseRows(l, h)
	k := s.shardCount(B)
	if k < 2 {
		return m.BestFit3D(w, l, h)
	}
	s.prepare()
	s.req = shardReq{w: w, l: l, h: h}
	s.assign(B, k)
	s.fanout(k)
	best, bestScore, found := Submesh{}, -1, false
	for i := 0; i < k; i++ {
		wk := &s.workers[i]
		if wk.found && wk.score > bestScore {
			best, bestScore, found = wk.sub, wk.score, true
		}
	}
	return best, found
}

// LargestFree implements Searcher: Mesh.LargestFree3D on the calling
// goroutine. Its probe phase is a handful of first-fit searches, and
// striping its O(W·L) sweep did not pay end to end.
func (s *Sharded) LargestFree(maxW, maxL, maxH, maxVol int) (Submesh, bool) {
	return s.m.LargestFree3D(maxW, maxL, maxH, maxVol)
}

// FrameSlide implements Searcher: Mesh.SlideFit on the calling
// goroutine, for the same reason as FirstFit — a stride-pattern probe
// finishes before a fan-out could.
func (s *Sharded) FrameSlide(w, l, h int) (Submesh, bool) { return s.m.SlideFit(w, l, h) }

// windowRowBlock is the repair-free blockingWindowRow: the highest
// window row whose stored aggregate rules out width w across the
// z-window, or -1. The stored bounds are exact after the owner's
// prepare pass (and valid upper bounds even without it), so workers
// prune exactly as hard as the serial scan without writing a thing.
func (m *Mesh) windowRowBlock(y, z, w, l, h int) int {
	for yy := y + l - 1; yy >= y; yy-- {
		for zz := z; zz < z+h; zz++ {
			if m.rowMax[zz*m.l+yy] < w {
				return yy
			}
		}
	}
	return -1
}

// planeBlock is the repair-free plane filter: the highest window plane
// whose stored aggregate rules out width w, or -1. Exact after the
// owner's prepare pass.
func (m *Mesh) planeBlock(z, w, h int) int {
	for zz := z + h - 1; zz >= z; zz-- {
		if m.planeMax[zz] < w {
			return zz
		}
	}
	return -1
}

// torusBaseMask builds the width-w torus fit mask of the wrapped
// window rows y..y+l-1 into the worker's band scratch and returns it,
// or nil when some window column is nowhere free: AND the rows
// planar-first, rotate into the doubled seam band, narrow by width —
// set bits below W are exactly the wrapped candidate bases.
func (wk *shardWorker) torusBaseMask(m *Mesh, y, w, l int) []uint64 {
	rowAnd := sizedWordScratch(&wk.rowAnd, m.wpr)
	if !m.torusRowAndInto(rowAnd, y, l) {
		return nil
	}
	band := sizedWordScratch(&wk.band, wordsPerRow(2*m.w))
	m.doubleRowInto(band, rowAnd)
	fitMask(band, w)
	return band
}

// bestFitStripe scans base rows [b0, b1) keeping the stripe's first
// maximal-score candidate, enumerating each surviving window's bases
// from a bitboard fit mask in per-worker scratch. The whole stripe is
// always scanned — a later candidate can still win on score.
func (s *Sharded) bestFitStripe(id int) {
	wk := &s.workers[id]
	wk.found, wk.score = false, -1
	m, q := s.m, &s.req
	switch {
	case m.torus:
		for y := wk.b0; y < wk.b1; {
			bad := -1
			for i := q.l - 1; i >= 0; i-- {
				yy := y + i
				if yy >= m.l {
					yy -= m.l
				}
				if m.looseRowBound(yy) < q.w {
					bad = yy
					break
				}
			}
			switch {
			case bad < 0:
				if band := wk.torusBaseMask(m, y, q.w, q.l); band != nil {
				bases:
					for i, v := range band {
						base := i << 6
						for v != 0 {
							x := base + bits.TrailingZeros64(v)
							if x >= m.w {
								break bases // second-copy bits: same placements
							}
							v &= v - 1
							sub := SubAt(x, y, q.w, q.l)
							if sc := m.torusBoundaryPressure(sub); sc > wk.score {
								wk.sub, wk.score, wk.found = sub, sc, true
							}
						}
					}
				}
				y++
			case bad >= y:
				y = bad + 1
			default:
				y++
			}
		}
	case m.h == 1:
		mask := sizedWordScratch(&wk.winMask, m.wpr)
		fresh := true
		for y := wk.b0; y < wk.b1; {
			if fresh {
				if bad := m.windowRowBlock(y, 0, q.w, q.l, 1); bad >= 0 {
					y = bad + 1
					continue
				}
			} else if m.rowMax[y+q.l-1] < q.w {
				y += q.l
				fresh = true
				continue
			}
			fresh = false
			if m.planarFitMaskInto(mask, y, 0, q.w, q.l, 1) {
				for i, v := range mask {
					base := i << 6
					for v != 0 {
						x := base + bits.TrailingZeros64(v)
						v &= v - 1
						sub := SubAt(x, y, q.w, q.l)
						if sc := m.boundaryPressure(sub); sc > wk.score {
							wk.sub, wk.score, wk.found = sub, sc, true
						}
					}
				}
			}
			y++
		}
	default:
		mask := sizedWordScratch(&wk.winMask, m.wpr)
		ny := m.l - q.l + 1
		for b := wk.b0; b < wk.b1; {
			z, y := b/ny, b%ny
			if zBad := m.planeBlock(z, q.w, q.h); zBad >= 0 {
				b = (zBad + 1) * ny
				continue
			}
			if bad := m.windowRowBlock(y, z, q.w, q.l, q.h); bad >= 0 {
				if bad+1 >= ny {
					b = (z + 1) * ny
				} else {
					b = z*ny + bad + 1
				}
				continue
			}
			if m.planarFitMaskInto(mask, y, z, q.w, q.l, q.h) {
				for i, v := range mask {
					base := i << 6
					for v != 0 {
						x := base + bits.TrailingZeros64(v)
						v &= v - 1
						sub := SubAt3D(x, y, z, q.w, q.l, q.h)
						if sc := m.boundaryPressure3D(sub); sc > wk.score {
							wk.sub, wk.score, wk.found = sub, sc, true
						}
					}
				}
			}
			b++
		}
	}
}
