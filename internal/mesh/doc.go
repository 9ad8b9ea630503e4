// Package mesh models a W x L x H grid of processors — planar 2D mesh
// (H == 1), wrap-around torus, or 3D mesh — with coordinates, cuboid
// sub-meshes, an occupancy map with allocation bookkeeping, and the
// free-sub-mesh searches (first-fit, best-fit, constrained
// largest-free) that the allocation strategies are built on.
//
// # Occupancy index
//
// Occupancy is backed by an incrementally maintained free-space index:
//
//   - a word-parallel bitboard (freeW), one uint64 per 64 columns of
//     each (row, plane), bit set = free — the single authoritative
//     store. Busy counts are masked popcounts, free runs are
//     trailing-zero scans, and window fits are shift-AND masks, all
//     derived from the words on demand;
//   - lazily repaired per-row max-run aggregates (rowMax) that let the
//     searches discard whole rows in O(1), stacked into a per-plane
//     z-axis aggregate (planeMax) that discards whole planes.
//
// The index is shared by every strategy; no operation rebuilds a full
// table per allocation decision. See the Mesh type for the exact
// invariants and maintenance costs, and docs/occupancy-index.md at the
// repository root for a narrative walkthrough with diagrams. The tests
// hold every mutation to a shadow occupancy model they keep
// themselves, and the searches to reference scans kept in
// reference_test.go.
//
// FirstFit and BestFit run one candidate-base loop on every fabric,
// serial and sharded: a scan over a range of base rows — (z, y) pairs
// on a planar or 3D mesh, grid rows on the torus — that prunes windows
// with the row (and plane) aggregates and enumerates each surviving
// row's bases off a bitboard fit mask. The topology supplies only the
// window-row check, the fit-mask builder and the score (search.go,
// docs/occupancy-index.md §7).
//
// The constrained-largest search (LargestFree3D, the heart of GABL's
// carving; LargestFree is its depth-1 case) is one search on every
// fabric: a best-first shape-probe phase backed by an O(W·L)
// maximal-rectangle-in-histogram sweep per (base plane, depth)
// AND-projection — over the doubled seam band on a torus — with
// release-epoch memoization of alloc-monotone facts (refuted shapes, a
// cached bound). The per-anchor scans it replaced are kept as the
// references its differential tests compare against (histogram.go,
// reference_test.go, docs/occupancy-index.md §6).
//
// # Topologies
//
// New builds a planar mesh, New3D a 3D mesh, and NewTorus a (depth-1)
// torus whose x and y extents wrap around. The index tables are planar
// on both 2D topologies — wrap-around semantics are resolved at query
// time: a free run reaching the x = W-1 edge continues at x = 0
// (capped at W), and a query rectangle crossing a seam is split into
// two or four planar rectangles, each answered by the planar machinery
// (see torus.go). The searches widen their candidate space
// accordingly, so on a torus FirstFit, BestFit and LargestFree may
// return sub-meshes whose end coordinates exceed the planar bounds
// (X2 >= W or Y2 >= L, extents taken modulo the ring sizes); SplitWrap
// resolves such a placement into the planar pieces that mutations
// understand. Mutations are always planar, which keeps the maintenance
// invariants identical on both topologies.
//
// On a 3D mesh the searches gain the depth axis (FirstFit3D, BestFit3D,
// LargestFree3D, FitsAt3D) scanning candidate bases in (z, y, x) order
// with plane-aggregate pruning. The planar FirstFit, BestFit and
// LargestFree are the depth-1 cases of the same searches, so 2D
// placements and tie-breaking are identical whichever entry point is
// called (volume.go).
//
// # Search executors
//
// Every search also runs behind the Searcher interface: NewSerial
// binds the scans above to the calling goroutine, and NewSharded runs
// the BestFit scan on a pool of workers — the base-row space split
// into contiguous stripes, each scanned by the serial scan with
// per-worker scratch after owner-side aggregate repairs, and a
// stripe-ordered reduction that reproduces the serial tie-break
// exactly, so placements are bit-identical at every worker count
// (sharded.go, docs/occupancy-index.md §8). The other searches
// finish before a fan-out could pay, so the sharded executor runs them
// serially. The allocation strategies route their scans through a
// Searcher, which is how one -workers knob parallelizes a whole
// simulation's BestFit searches.
//
// # Coordinates
//
// Coordinates follow the paper: processor (x, y) with 0 <= x < W,
// 0 <= y < L; a sub-mesh S(w, l) is written (x, y, x', y') where (x, y)
// is its base and (x', y') its end (paper Definition 1). The depth
// axis extends both: processor (x, y, z) with 0 <= z < H, and cuboid
// sub-meshes S(w, l, h) with base and end planes; 2D constructors
// produce depth-1 sub-meshes in plane 0.
package mesh
