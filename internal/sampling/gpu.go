package sampling

import (
	"math/rand"

	"wholegraph/internal/graph"
	"wholegraph/internal/sim"
	"wholegraph/internal/topostore"
)

// Neighborhood is one sampled layer over the partitioned graph: for target
// i, Neighbors[Offsets[i]:Offsets[i+1]] are its sampled neighbor GlobalIDs.
type Neighborhood struct {
	Targets   []graph.GlobalID
	Offsets   []int64
	Neighbors []graph.GlobalID
	// EdgePos holds, per sampled neighbor, the global element index of the
	// traversed edge in the store's Col/EdgeW arrays, so edge weights can
	// be gathered for the sampled edges.
	EdgePos []int64
}

// GPUSampler is the multi-GPU sampling op of §III-C1: it runs on one device
// and reads the graph structure (row pointers and sampled neighbor IDs)
// directly from whichever GPU owns them, over NVLink, inside the sampling
// kernel. Neighbor selection uses Algorithm 1.
//
// Concurrency contract: a sampler is owned by its device's goroutine
// (sim/exec.go ownership model). It mutates only its own Rng and charges
// only its own Dev; the partitioned graph is immutable after construction.
// Samplers on distinct devices may therefore run concurrently, and each
// worker's seeded Rng stream makes the sampled neighborhoods independent of
// how the workers are scheduled.
type GPUSampler struct {
	PG  *graph.Partitioned
	Dev *sim.Device
	Rng *rand.Rand

	// scratch backs Algorithm 1 across SampleLayer calls, one workspace per
	// sampler so concurrent samplers never share memory.
	scratch Scratch
}

// NewGPUSampler returns a sampler for pg running on dev with the given seed.
func NewGPUSampler(pg *graph.Partitioned, dev *sim.Device, seed int64) *GPUSampler {
	return &GPUSampler{PG: pg, Dev: dev, Rng: rand.New(rand.NewSource(seed))}
}

// SampleLayer samples up to fanout neighbors (without replacement) for each
// target and charges the device for one fused sampling kernel: row-pointer
// reads, the Algorithm 1 sort/chain work, and the sampled-neighbor ID reads
// with their true contiguity (full lists are read as one segment; sampled
// subsets as 8-byte random accesses).
func (s *GPUSampler) SampleLayer(targets []graph.GlobalID, fanout int) *Neighborhood {
	return s.SampleLayerInto(new(Neighborhood), targets, fanout)
}

// SampleLayerInto is SampleLayer writing into a caller-owned Neighborhood,
// truncating and reusing its slices: the steady-state loader keeps one
// Neighborhood per hop and pays no per-iteration allocation once they have
// grown to size.
func (s *GPUSampler) SampleLayerInto(nb *Neighborhood, targets []graph.GlobalID, fanout int) *Neighborhood {
	nb.Targets = targets
	if cap(nb.Offsets) < len(targets)+1 {
		nb.Offsets = make([]int64, 1, len(targets)+1)
	} else {
		nb.Offsets = nb.Offsets[:1]
	}
	nb.Offsets[0] = 0
	nb.Neighbors = nb.Neighbors[:0]
	nb.EdgePos = nb.EdgePos[:0]
	rank := s.PG.Comm.RankOfDevice(s.Dev)

	// Paged topology: neighbor IDs come from the page-aware accessor
	// instead of the materialized Col array. Decoded values are identical;
	// only the charging changes — pages are faulted to local HBM (one
	// copy-stream dance in Flush below), so every column read is a local
	// 8-byte random access instead of a possibly-remote NVLink read.
	var acc *topostore.Access
	if ts := s.PG.PagedTopo(); ts != nil {
		acc = ts.Begin(s.Dev)
	}
	neighbor := func(t graph.GlobalID, k int64) graph.GlobalID {
		e := s.PG.EdgeIndex(t, k)
		nb.EdgePos = append(nb.EdgePos, e)
		if acc != nil {
			return graph.GlobalID(acc.At(e))
		}
		return graph.GlobalID(s.PG.ColValue(e))
	}

	var localBytes, remoteBytes, remoteSegs, sortKeys float64
	for _, t := range targets {
		deg := s.PG.Degree(t)
		// Two rowptr reads (one 16-byte segment). RowPtr is resident
		// distributed shared memory in both modes.
		if t.Rank() == rank {
			localBytes += 16
		} else {
			remoteBytes += 16
			remoteSegs++
		}
		if deg <= int64(fanout) {
			// Take all neighbors: one contiguous read of the list.
			for k := int64(0); k < deg; k++ {
				nb.Neighbors = append(nb.Neighbors, neighbor(t, k))
			}
			if acc != nil || t.Rank() == rank {
				localBytes += float64(8 * deg)
			} else {
				remoteBytes += float64(8 * deg)
				remoteSegs++
			}
		} else {
			idx := s.scratch.SampleWithoutReplacement(fanout, int(deg), s.Rng)
			sortKeys += float64(fanout)
			for _, k := range idx {
				nb.Neighbors = append(nb.Neighbors, neighbor(t, k))
			}
			// Sampled positions are scattered inside the list: 8-byte
			// random accesses.
			if acc != nil || t.Rank() == rank {
				localBytes += float64(8 * fanout)
			} else {
				remoteBytes += float64(8 * fanout)
				remoteSegs += float64(fanout)
			}
		}
		nb.Offsets = append(nb.Offsets, int64(len(nb.Neighbors)))
	}

	// Fault the column pages this kernel needs (no-op when everything is
	// resident); the sampling kernel below starts after the migration.
	if acc != nil {
		acc.Flush()
	}

	seg := 8.0
	if remoteSegs > 0 {
		seg = remoteBytes / remoteSegs
	}
	// Algorithm 1 work: the radix sort of packed 64-bit keys dominates;
	// 8 LSD passes read+write 8 bytes per key each.
	sortBytes := sortKeys * 8 * 2 * 8
	s.Dev.Kernel(sim.KernelCost{
		RandBytes:      localBytes,
		RemoteBytes:    remoteBytes,
		RemoteSegBytes: seg,
		StreamBytes:    sortBytes + float64(8*len(nb.Neighbors)),
		Tag:            "sample",
	})
	return nb
}

// Fanouts applies SampleLayer per hop: hop l samples fanouts[l] neighbors
// of the frontier produced by hop l-1. The caller is responsible for
// deduplication between hops (see the AppendUnique op).
func (s *GPUSampler) Fanouts(targets []graph.GlobalID, fanouts []int,
	frontier func(nb *Neighborhood) []graph.GlobalID) []*Neighborhood {
	out := make([]*Neighborhood, 0, len(fanouts))
	cur := targets
	for _, f := range fanouts {
		nb := s.SampleLayer(cur, f)
		out = append(out, nb)
		cur = frontier(nb)
	}
	return out
}
