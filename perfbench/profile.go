package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// The layer split reads the traced pass's CPU profile (the gzipped
// profile.proto runtime/pprof writes) with a minimal protobuf decoder,
// and gives each sample to one bucket: walking from the leaf towards
// the root, the first frame that is either a garbage-collector,
// allocator, write-barrier or preemption frame of the runtime
// ("runtime") or a frame of repro/internal/<pkg> ("<pkg>"). Samples
// with neither, such as the benchmark's own loops, go to "other".

// layerBuckets are the share.* metrics, in output order.
var layerBuckets = []string{"des", "network", "alloc", "mesh", "sched", "sim", "workload", "stats", "runtime", "other"}

// runtimeCost lists the runtime frames charged to the "runtime" bucket.
var runtimeCost = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
	"runtime.gc", "runtime.GC", "runtime.wbBuf", "runtime.bulkBarrier",
	"runtime.(*gcWork)", "runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)",
	"runtime.(*mspan)", "runtime.(*sweepLocked)", "runtime.scanobject", "runtime.scanblock",
	"runtime.scanstack", "runtime.greyobject", "runtime.markroot", "runtime.sweepone",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.asyncPreempt", "runtime.morestack",
	"runtime.newstack", "runtime.convT",
}

// bucketOf names the bucket of one stack, leaf first.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		for _, p := range runtimeCost {
			if strings.HasPrefix(fn, p) {
				return "runtime"
			}
		}
		if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				rest = rest[:i]
			}
			return rest
		}
	}
	return "other"
}

// layerShares returns each bucket's share of the profile's samples and
// the sample count.
func layerShares(gz []byte) (map[string]float64, int, error) {
	stacks, weights, err := decodeProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	shares := map[string]float64{}
	var total int64
	for i, st := range stacks {
		b := bucketOf(st)
		if !slices.Contains(layerBuckets, b) {
			b = "other"
		}
		shares[b] += float64(weights[i])
		total += weights[i]
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= float64(total)
		}
	}
	return shares, int(total), nil
}

// pb is a cursor over one protobuf message.
type pb struct{ b []byte }

var errTruncated = errors.New("perfbench: truncated profile")

func (p *pb) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("perfbench: varint overflow")
}

// next reads one field: its number, wire type, varint value (wire type
// 0) or payload (wire type 2).
func (p *pb) next() (num int, wire int, v uint64, payload []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = p.varint()
	case 1, 5:
		n := 8
		if wire == 5 {
			n = 4
		}
		if len(p.b) < n {
			return 0, 0, 0, nil, errTruncated
		}
		p.b = p.b[n:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, 0, nil, errTruncated
			}
			payload, p.b = p.b[:n], p.b[n:]
		}
	default:
		err = fmt.Errorf("perfbench: unsupported wire type %d", wire)
	}
	return num, wire, v, payload, err
}

// ints reads a repeated integer field, packed or not.
func ints(wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	q := pb{payload}
	for len(q.b) > 0 {
		x, err := q.varint()
		if err != nil {
			return nil, err
		}
		out = append(out, x)
	}
	return out, nil
}

// decodeProfile returns every sample's stack as function names, leaf
// first with inlined frames innermost first, and its sample count.
func decodeProfile(gz []byte) ([][]string, []int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("perfbench: profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("perfbench: profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location → function ids, innermost first
		funcNames = map[uint64]int64{}    // function → string index
		strs      []string
	)
	p := pb{raw}
	for len(p.b) > 0 {
		num, _, _, payload, err := p.next()
		if err != nil {
			return nil, nil, err
		}
		q := pb{payload}
		switch num {
		case 2: // Sample
			var s sample
			for len(q.b) > 0 {
				f, w, v, pl, err := q.next()
				if err != nil {
					return nil, nil, err
				}
				vals, err := ints(w, v, pl)
				if err != nil {
					return nil, nil, err
				}
				switch f {
				case 1:
					s.locs = append(s.locs, vals...)
				case 2:
					if s.count == 0 && len(vals) > 0 {
						s.count = int64(vals[0])
					}
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for len(q.b) > 0 {
				f, _, v, pl, err := q.next()
				if err != nil {
					return nil, nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					l := pb{pl}
					for len(l.b) > 0 {
						lf, _, lv, _, err := l.next()
						if err != nil {
							return nil, nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			for len(q.b) > 0 {
				f, _, v, _, err := q.next()
				if err != nil {
					return nil, nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(payload))
		}
	}
	stacks := make([][]string, len(samples))
	counts := make([]int64, len(samples))
	for i, s := range samples {
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx >= 0 && int(idx) < len(strs) {
					stacks[i] = append(stacks[i], strs[idx])
				}
			}
		}
		counts[i] = s.count
	}
	return stacks, counts, nil
}
