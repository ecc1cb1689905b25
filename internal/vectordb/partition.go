package vectordb

import (
	"fmt"
	"hash/fnv"
)

// Partitioner decides which shard of a Sharded index stores an entry. In
// the default exact serving mode routing only affects data placement —
// every query fans out across all shards and searches exactly, so the
// partitioner changes load balance and parallelism, never results. Under
// probe-limited serving (Sharded.SetProbes) an IVF partitioner's centroid
// geometry additionally decides which partitions a query searches, so
// placement then trades recall for latency. Implementations must be safe
// for concurrent Route calls (both shipped partitioners are immutable
// after construction) and must return indices in [0, Shards()); the store
// validates placements and rejects out-of-range routes with an error
// rather than corrupting itself.
type Partitioner interface {
	// Shards returns the number of partitions routed to.
	Shards() int
	// Route returns the shard index in [0, Shards()) for an entry.
	Route(e Entry) int
}

// CategoryHash routes entries by a hash of their root-cause category, so
// every category lives wholly inside one shard. This is the default: the
// paper's corpus is category-heavy (163 categories over 653 incidents), and
// keeping a category together makes the diverse-retrieval merge trivial.
type CategoryHash struct {
	// N is the shard count.
	N int
}

// Shards implements Partitioner.
func (c CategoryHash) Shards() int { return c.N }

// Route implements Partitioner (FNV-1a over the category label).
func (c CategoryHash) Route(e Entry) int {
	h := fnv.New32a()
	h.Write([]byte(e.Category))
	return int(h.Sum32() % uint32(c.N))
}

// IVF is an inverted-file-style coarse quantizer: entries route to the
// shard whose trained centroid is nearest their embedding vector, so each
// shard holds one region of the vector space. Train it from the vectors
// already stored (Sharded.TrainIVF) once enough history has accumulated.
type IVF struct {
	centroids [][]float64
	// distortion is the mean assignment distance (vector to its nearest
	// centroid) over the training set — the quantization-quality baseline
	// the adaptive controller's drift detector compares fresh inserts
	// against (see Sharded.EnableAdaptive).
	distortion float64
}

// Shards implements Partitioner.
func (p *IVF) Shards() int { return len(p.centroids) }

// Route implements Partitioner: nearest centroid by Euclidean distance,
// ties broken toward the lowest shard index for determinism.
func (p *IVF) Route(e Entry) int {
	best, bestDist := 0, Distance(e.Vector, p.centroids[0])
	for i := 1; i < len(p.centroids); i++ {
		if d := Distance(e.Vector, p.centroids[i]); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// centroidDists returns the Euclidean distance from the query to every
// shard centroid, indexed by shard — the raw geometry probe ranking
// blends with partition recency.
func (p *IVF) centroidDists(query []float64) []float64 {
	dists := make([]float64, len(p.centroids))
	for i, c := range p.centroids {
		dists[i] = Distance(query, c)
	}
	return dists
}

// Distortion returns the mean training-set assignment distance (0 for a
// quantizer not produced by TrainIVF).
func (p *IVF) Distortion() float64 { return p.distortion }

// IVFFromCentroids reconstructs a quantizer from previously trained
// geometry — Centroids() and Distortion() of an earlier TrainIVF — so a
// persisted retrain event (a WAL record, a shipped snapshot) can restore
// routing without access to the original training vectors. The centroids
// are copied and validated: at least one, all the same nonzero width, a
// non-negative distortion.
func IVFFromCentroids(centroids [][]float64, distortion float64) (*IVF, error) {
	if len(centroids) == 0 {
		return nil, fmt.Errorf("vectordb: IVFFromCentroids with no centroids")
	}
	if distortion < 0 {
		return nil, fmt.Errorf("vectordb: IVFFromCentroids with negative distortion %v", distortion)
	}
	dim := len(centroids[0])
	if dim == 0 {
		return nil, fmt.Errorf("vectordb: IVFFromCentroids with zero-width centroid")
	}
	cp := make([][]float64, len(centroids))
	for i, c := range centroids {
		if len(c) != dim {
			return nil, fmt.Errorf("vectordb: IVFFromCentroids centroid %d has dim %d, centroid 0 has %d", i, len(c), dim)
		}
		cp[i] = append([]float64(nil), c...)
	}
	return &IVF{centroids: cp, distortion: distortion}, nil
}

// Centroids returns a copy of the trained shard centroids.
func (p *IVF) Centroids() [][]float64 {
	out := make([][]float64, len(p.centroids))
	for i, c := range p.centroids {
		out[i] = append([]float64(nil), c...)
	}
	return out
}

// TrainIVF runs a deterministic Lloyd k-means over the given vectors and
// returns the resulting coarse quantizer. Centroids initialize from evenly
// strided picks over the input order and every assignment tie breaks toward
// the lowest cluster index, so identical input produces identical
// partitioners — callers wanting interleaving-independent training pass
// vectors in a canonical order (Sharded.TrainIVF sorts by entry ID). iters
// <= 0 selects the default of 8 Lloyd iterations; fewer vectors than shards
// is allowed (the surplus shards stay empty until vectors drift to them).
func TrainIVF(vectors [][]float64, shards, iters int) (*IVF, error) {
	if shards < 2 {
		return nil, fmt.Errorf("vectordb: TrainIVF needs at least 2 shards, got %d", shards)
	}
	if len(vectors) == 0 {
		return nil, fmt.Errorf("vectordb: TrainIVF needs at least one vector")
	}
	dim := len(vectors[0])
	for i, v := range vectors {
		if len(v) != dim {
			return nil, fmt.Errorf("vectordb: TrainIVF vector %d has dim %d, vector 0 has %d", i, len(v), dim)
		}
	}
	if iters <= 0 {
		iters = 8
	}

	centroids := make([][]float64, shards)
	for i := range centroids {
		// Strided deterministic init; with n < shards this duplicates
		// vectors, which is fine — duplicated centroids just leave the
		// higher-indexed shard empty (Route ties go to the lowest index).
		centroids[i] = append([]float64(nil), vectors[(i*len(vectors))/shards]...)
	}

	assign := make([]int, len(vectors))
	var distortion float64
	for it := 0; it < iters; it++ {
		distortion = 0
		for i, v := range vectors {
			best, bestDist := 0, Distance(v, centroids[0])
			for c := 1; c < shards; c++ {
				if d := Distance(v, centroids[c]); d < bestDist {
					best, bestDist = c, d
				}
			}
			assign[i] = best
			distortion += bestDist
		}
		sums := make([][]float64, shards)
		counts := make([]int, shards)
		for i := range sums {
			sums[i] = make([]float64, dim)
		}
		for i, v := range vectors {
			c := assign[i]
			counts[c]++
			for j, x := range v {
				sums[c][j] += x
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				continue // empty cluster keeps its previous centroid
			}
			for j := range centroids[c] {
				centroids[c][j] = sums[c][j] / float64(counts[c])
			}
		}
	}
	// The recorded distortion is the assignment cost against the
	// penultimate centroids (assignments are not recomputed after the last
	// mean update) — the standard Lloyd bookkeeping, and exactly what the
	// drift detector needs: a baseline for "how far is a typical in-corpus
	// vector from its centroid".
	return &IVF{centroids: centroids, distortion: distortion / float64(len(vectors))}, nil
}
