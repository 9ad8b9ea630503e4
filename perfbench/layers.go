package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/alloc"
	"repro/internal/des"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The layer replays below drive each package through its public calls,
// from outside, at the load shape the workload's runs put on it. Each
// is deterministic in its seed: the counts it returns repeat exactly,
// only the timings vary.

// drawTable pre-draws n values so no random draw sits inside a timed
// loop.
func drawTable(n int, draw func() float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = draw()
	}
	return out
}

// networkDelays is the event-delay mix the network puts on the DES
// engine — 1+RouterDelay per header hop, PacketLen-k for the tail
// drains, PacketLen for delivery — plus exponential job arrivals at the
// paper load.
func networkDelays(seed int64, n int) []float64 {
	cfg := network.DefaultConfig()
	rng := stats.NewStream(seed)
	return drawTable(n, func() float64 {
		switch u := rng.Float64(); {
		case u < 0.6:
			return 1 + cfg.RouterDelay
		case u < 0.8:
			return float64(cfg.PacketLen - rng.UniformInt(1, cfg.PacketLen-1))
		case u < 0.95:
			return float64(cfg.PacketLen)
		default:
			return rng.Exp(1 / paperLoad)
		}
	})
}

// desHold holds an engine at `pending` events — each fired event
// schedules one replacement from the delay mix — and returns the mean
// host nanoseconds per ScheduleEvent+Step over `steps` events.
func desHold(seed int64, pending, steps int) float64 {
	delays := networkDelays(seed, 4096)
	eng := des.NewEngine()
	i := 0
	var fire des.EventFunc
	fire = func(any) {
		eng.ScheduleEvent(delays[i&4095], fire, nil)
		i++
	}
	for k := 0; k < pending; k++ {
		fire(nil)
	}
	for k := 0; k < pending; k++ { // warm the record pool and heap
		eng.Step()
	}
	start := time.Now()
	for k := 0; k < steps; k++ {
		eng.Step()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(steps)
}

// desCancel times Cancel on an engine held at `pending` events: batches
// of random pending events are cancelled (timed) and rescheduled
// (untimed). It returns host nanoseconds per Cancel.
func desCancel(seed int64, pending, cancels int) float64 {
	const batch = 128
	delays := networkDelays(seed, 4096)
	rng := stats.NewStream(seed + 1)
	eng := des.NewEngine()
	nop := func(any) {}
	handles := make([]des.Handle, pending)
	for k := range handles {
		handles[k] = eng.ScheduleEvent(delays[k&4095], nop, nil)
	}
	victims := make([]int, batch)
	var timed time.Duration
	for done := 0; done < cancels; done += batch {
		for b := range victims {
			victims[b] = rng.UniformInt(0, pending-1)
		}
		start := time.Now()
		for _, v := range victims {
			eng.Cancel(handles[v])
		}
		timed += time.Since(start)
		for b, v := range victims {
			handles[v] = eng.ScheduleEvent(delays[(done+b)&4095], nop, nil)
		}
	}
	return float64(timed.Nanoseconds()) / float64(cancels)
}

// netResult is the network replay's outcome.
type netResult struct {
	packets            int
	nsPerPacket        float64
	allocsPerPacket    float64
	bytesPerPacket     float64
	jobsSent, jobsSkip int
}

// netReplay replays the all-to-all phase of the workload's first `jobs`
// jobs on an idle 16x22 network with the benchmark's own engine, one
// job at a time at a seeded base position. Each sending processor
// issues its next packet when the previous one is delivered, towards
// the same ring successor the simulator's all-to-all pattern uses.
func netReplay(src workload.Source, seed int64, jobs int) netResult {
	const w, l = 16, 22
	eng := des.NewEngine()
	net := network.New(eng, w, l, network.DefaultConfig())
	rng := stats.NewStream(seed)
	var res netResult
	type sender struct {
		i, k, msgs int
		nodes      []mesh.Coord
		deliver    func(*network.Packet)
	}
	var pool []*sender
	send := func(sd *sender) {
		n := len(sd.nodes)
		dst := sd.nodes[(sd.i+1+sd.k%(n-1))%n]
		net.SendWithLoss(sd.nodes[sd.i], dst, sd.deliver, sd.deliver)
		res.packets++
	}
	mem := readMem()
	start := time.Now()
	for j := 0; j < jobs; j++ {
		job, ok := src.Next()
		if !ok {
			break
		}
		if job.Messages == 0 || job.W*job.L < 2 {
			res.jobsSkip++
			continue
		}
		x := rng.UniformInt(0, w-job.W)
		y := rng.UniformInt(0, l-job.L)
		nodes := make([]mesh.Coord, 0, job.W*job.L)
		for dy := 0; dy < job.L; dy++ {
			for dx := 0; dx < job.W; dx++ {
				nodes = append(nodes, mesh.Coord{X: x + dx, Y: y + dy})
			}
		}
		for len(pool) < len(nodes) {
			sd := &sender{}
			sd.deliver = func(*network.Packet) {
				sd.k++
				if sd.k < sd.msgs {
					send(sd)
				}
			}
			pool = append(pool, sd)
		}
		for i := range nodes {
			sd := pool[i]
			sd.i, sd.k, sd.msgs, sd.nodes = i, 0, job.Messages, nodes
			send(sd)
		}
		for eng.Step() {
		}
		res.jobsSent++
	}
	elapsed := time.Since(start)
	d := memSince(mem)
	if res.packets > 0 {
		p := float64(res.packets)
		res.nsPerPacket = float64(elapsed.Nanoseconds()) / p
		res.allocsPerPacket = float64(d.mallocs) / p
		res.bytesPerPacket = float64(d.totalAlloc) / p
	}
	return res
}

// allocResult is one strategy's allocation replay outcome.
type allocResult struct {
	attempts, failed, placed int
	nsAllocate, nsRelease    float64
	piecesPerAlloc           float64
	bytesPerAllocate         float64
	m                        *mesh.Mesh
}

// allocReplayRun feeds the request stream into the strategy on a fresh
// mesh. The mesh is held at the utilization the stream reaches: when
// Allocate fails, the oldest live placement is released and the
// request retried. fail_frac is failed attempts over all attempts — the
// share of searches that were wasted.
func allocReplayRun(r allocReplay, seed int64, requests int) (allocResult, error) {
	m := mesh.New(r.w, r.l)
	a, err := alloc.ByName(r.strategy, m, stats.NewStream(seed+1))
	if err != nil {
		return allocResult{}, err
	}
	var res allocResult
	var live []alloc.Allocation
	var tAlloc, tRelease time.Duration
	pieces := 0
	mem := readMem()
	for n := 0; n < requests; n++ {
		job, ok := r.src.Next()
		if !ok {
			break
		}
		req := alloc.Request{W: job.W, L: job.L}
		for {
			start := time.Now()
			got, ok := a.Allocate(req)
			tAlloc += time.Since(start)
			res.attempts++
			if ok {
				live = append(live, got)
				pieces += got.PieceCount()
				res.placed++
				break
			}
			res.failed++
			if len(live) == 0 {
				return allocResult{}, fmt.Errorf("%s: %v does not fit an empty %dx%d mesh", r.strategy, req, r.w, r.l)
			}
			start = time.Now()
			a.Release(live[0])
			tRelease += time.Since(start)
			live = live[1:]
		}
	}
	d := memSince(mem)
	released := res.attempts - res.placed
	res.nsAllocate = float64(tAlloc.Nanoseconds()) / float64(res.attempts)
	if released > 0 {
		res.nsRelease = float64(tRelease.Nanoseconds()) / float64(released)
	}
	res.piecesPerAlloc = float64(pieces) / float64(res.placed)
	res.bytesPerAllocate = float64(d.totalAlloc) / float64(res.attempts)
	res.m = a.Mesh()
	return res, nil
}

// meshAtOccupancy times the occupancy layer on a mesh left at a
// replay's live occupancy: the unconstrained LargestFree sweep GABL
// starts every allocation with, and an AllocateSub/ReleaseSub round
// trip of a small free sub-mesh. It returns ns per LargestFree and ns
// per round trip (zero when no free 2x2 block exists).
func meshAtOccupancy(m *mesh.Mesh, calls int) (nsLargest, nsChurn float64) {
	start := time.Now()
	for k := 0; k < calls; k++ {
		m.LargestFree(m.W(), m.L(), m.Size())
	}
	nsLargest = float64(time.Since(start).Nanoseconds()) / float64(calls)
	s, ok := m.LargestFree(2, 2, 4)
	if !ok {
		return nsLargest, 0
	}
	churns := 64 * calls
	start = time.Now()
	for k := 0; k < churns; k++ {
		if m.AllocateSub(s) != nil || m.ReleaseSub(s) != nil {
			return nsLargest, math.NaN()
		}
	}
	nsChurn = float64(time.Since(start).Nanoseconds()) / float64(churns)
	return nsLargest, nsChurn
}

// queueItem is a stand-in for a queued job: SSD orders by its demand.
type queueItem struct{ demand float64 }

// schedHold holds a queue at `length` entries — each round pushes one
// item, peeks the head and pops it — and returns ns per queue
// operation (three per round).
func schedHold(q sched.Queue[*queueItem], seed int64, length, rounds int) float64 {
	rng := stats.NewStream(seed)
	demands := drawTable(4096, func() float64 { return rng.Exp(500) })
	for k := 0; k < length; k++ {
		q.Push(&queueItem{demand: demands[k&4095]})
	}
	it := &queueItem{}
	start := time.Now()
	for k := 0; k < rounds; k++ {
		it.demand = demands[k&4095]
		q.Push(it)
		q.Peek()
		it, _ = q.Pop()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(3*rounds)
}
