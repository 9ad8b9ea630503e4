package mesh

import "sync"

// This file implements the sharded search executor (PR 5): the
// BestFit scan is embarrassingly parallel across base rows once the
// reduction is made deterministic, so Sharded partitions the (z, y)
// base space into contiguous stripes, runs the serial window scan
// (windowScan) on each stripe on a worker with per-worker scratch, and
// reduces the stripe-local winners in stripe order with the exact
// serial tie-break. Placements are therefore bit-identical to the
// serial scan — the argument lives in docs/occupancy-index.md §8.
// BestFit is the only search that scores every fitting base. The
// others stop at the first hit before a fan-out's wake-up could pay
// for itself, or (LargestFree's sweep) did not win end to end when
// striped, so Sharded runs them on the calling goroutine. The load
// rules:
//
//   - Workers are strictly read-only on the mesh. The serial scan
//     writes only to repair stale aggregates (rowMaxRescan,
//     planeMaxRescan); a sharded search repairs owner-side before the
//     fan-out — prepare repairs every stale row and plane aggregate —
//     so the scan's repair branches never run in a worker, and its
//     pruning is exactly the serial pruning. Occupancy itself is read
//     straight off the bitboard words, which no scan ever mutates.
//
//   - The owner goroutine runs stripe 0 inline and every mutation
//     strictly between fan-outs, so no mutation is ever concurrent with
//     a worker scan.
//
//   - Per-worker scratch (a scanScratch) is lazily sized and reused
//     forever, and the fan-out path uses only pre-allocated channels
//     and a WaitGroup, keeping steady-state searches at 0 allocs/call
//     like their serial counterparts.

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
	base  Coord
	found bool
	score int

	scan scanScratch // per worker, so concurrent stripes never share a buffer
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

// prepare is the owner-side mutation pass before a window-scan
// fan-out: it repairs every stale row (and plane) aggregate, so the
// scan's lazy repairs find nothing to do in a worker — and nothing in
// a worker ever writes to the mesh. The stale scan is one bool per
// row; repairs amortize against the mutations that caused them,
// exactly like the serial laziness.
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
	if !m.shapeOK(w, l, h) {
		return Submesh{}, false
	}
	B := m.baseRows(l, h)
	k := s.shardCount(B)
	if k < 2 {
		return m.BestFit3D(w, l, h)
	}
	s.prepare()
	s.req = shardReq{w: w, l: l, h: h}
	s.assign(B, k)
	s.fanout(k)
	best, bestScore := -1, -1
	for i := 0; i < k; i++ {
		if wk := &s.workers[i]; wk.found && wk.score > bestScore {
			best, bestScore = i, wk.score
		}
	}
	if best < 0 {
		return Submesh{}, false
	}
	c := s.workers[best].base
	return SubAt3D(c.X, c.Y, c.Z, w, l, h), true
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

// bestFitStripe runs the serial BestFit scan (windowScan) over the
// worker's stripe with the worker's scratch, keeping the stripe's first
// maximal-score candidate. The whole stripe is always scanned — a later
// candidate can still win on score.
func (s *Sharded) bestFitStripe(id int) {
	wk, q := &s.workers[id], &s.req
	wk.base, wk.score, wk.found = s.m.windowScan(wk.b0, wk.b1, q.w, q.l, q.h, &wk.scan, false)
}
