// Package minhash implements MinHash signatures and a banded
// locality-sensitive-hash (LSH) index over them. MISTIQUE's approximate
// de-duplication discretizes each ColumnChunk's values, MinHashes the
// resulting set, and queries the LSH index for existing Partitions whose
// chunks have Jaccard similarity above a threshold tau; similar chunks are
// then co-located so the downstream compressor can exploit their redundancy.
package minhash

import (
	"math"
	"math/bits"
	"math/rand"
)

// mersenne61 is a Mersenne prime used for universal hashing.
const mersenne61 = (1 << 61) - 1

// Signature is a MinHash signature: element i is the minimum of hash
// function i over the input set.
type Signature []uint64

// Hasher computes MinHash signatures with a fixed family of k universal
// hash functions. A Hasher is immutable after construction and safe for
// concurrent use.
type Hasher struct {
	a, b []uint64
}

// NewHasher creates a Hasher with k hash functions seeded deterministically.
func NewHasher(k int, seed int64) *Hasher {
	rng := rand.New(rand.NewSource(seed))
	h := &Hasher{a: make([]uint64, k), b: make([]uint64, k)}
	for i := 0; i < k; i++ {
		h.a[i] = uint64(rng.Int63n(mersenne61-1)) + 1 // a in [1, p-1]
		h.b[i] = uint64(rng.Int63n(mersenne61))       // b in [0, p-1]
	}
	return h
}

// hash61 computes (a*x + b) mod 2^61-1 from the full 128-bit product.
func hash61(a, b, x uint64) uint64 {
	hi, lo := bits.Mul64(a, x)
	// Reduce modulo 2^61-1: (hi*2^64 + lo) mod p. 2^64 mod p = 8, so
	// value ≡ hi*8 + lo (mod p) after folding lo's top bits.
	r := (lo & mersenne61) + (lo >> 61) + hi*8 + b
	for r >= mersenne61 {
		r -= mersenne61
	}
	return r
}

// fold mins element x into sig under every hash function.
func (h *Hasher) fold(sig Signature, x uint64) {
	for i := range h.a {
		if v := hash61(h.a[i], h.b[i], x); v < sig[i] {
			sig[i] = v
		}
	}
}

// maxSignElements caps how many distinct elements feed a signature. A
// MinHash over a deterministic sample of the column estimates Jaccard
// similarity nearly as well as one over every value, and keeps the
// signature cost per ColumnChunk constant — logging overhead must not be
// dominated by similarity hashing (Sec. 8.6).
const maxSignElements = 128

// SignFloats discretizes a float32 column into buckets of the given width
// and MinHashes the resulting value set. Discretization makes "similar"
// numeric columns (same values modulo noise or quantization) collide.
func (h *Hasher) SignFloats(vals []float32, bucket float64) Signature {
	stride := 1
	if len(vals) > maxSignElements {
		stride = len(vals) / maxSignElements
	}
	// Deduplicate through a fixed-size open-addressing table that lives on
	// the stack. Strided sampling admits at most 2*maxSignElements-1 keys
	// (worst case stride 1 at len = 2*maxSignElements-1), so a 4x-sized
	// table keeps the load factor under 1/2 and linear probing short. Only
	// the Signature itself escapes to the heap — this runs once per logged
	// ColumnChunk (Sec. 8.6: logging overhead must not be dominated by
	// similarity hashing).
	var (
		keys [4 * maxSignElements]uint64
		used [4 * maxSignElements]bool
	)
	sig := make(Signature, len(h.a))
	for i := range sig {
		sig[i] = math.MaxUint64
	}
	for i := 0; i < len(vals); i += stride {
		f := float64(vals[i])
		var key uint64
		switch {
		case math.IsNaN(f):
			key = 1<<63 + 1
		case bucket > 0:
			key = uint64(int64(math.Floor(f/bucket))) * 2654435761
		default:
			key = math.Float64bits(f)
		}
		slot := int(key % uint64(len(keys)))
		for used[slot] && keys[slot] != key {
			slot = (slot + 1) % len(keys)
		}
		if used[slot] {
			continue // duplicate
		}
		used[slot], keys[slot] = true, key
		h.fold(sig, key)
	}
	return sig
}

// EstimateJaccard estimates the Jaccard similarity of the underlying sets
// from two signatures produced by the same Hasher.
func EstimateJaccard(a, b Signature) float64 {
	if len(a) != len(b) || len(a) == 0 {
		panic("minhash: signature length mismatch")
	}
	match := 0
	for i := range a {
		if a[i] == b[i] {
			match++
		}
	}
	return float64(match) / float64(len(a))
}

// Index is a banded LSH index: signatures are split into bands of rows
// hashes each; two signatures become candidates if any band matches
// exactly. With b bands of r rows, the threshold is roughly (1/b)^(1/r).
//
// Band buckets are keyed by a 64-bit mix of the band's rows rather than the
// rows' raw bytes. A mixed-key collision can only produce a spurious
// *candidate*, and every candidate is re-scored against the full signature
// (EstimateJaccard in QueryBest), so correctness is unaffected — while
// inserts and queries stay allocation-free per band.
type Index struct {
	bands, rows int
	tables      []map[uint64][]int
	sigs        map[int]Signature
}

// NewIndex creates an LSH index for signatures of length bands*rows.
func NewIndex(bands, rows int) *Index {
	t := make([]map[uint64][]int, bands)
	for i := range t {
		t[i] = make(map[uint64][]int)
	}
	return &Index{bands: bands, rows: rows, tables: t, sigs: make(map[int]Signature)}
}

// bandKey mixes the band's rows into one uint64 with an FNV-1a-style fold
// (64-bit prime multiply per row). Equal bands always produce equal keys;
// unequal bands collide with probability ~2^-64 per pair, and collisions are
// harmless (see the type comment).
func (ix *Index) bandKey(sig Signature, band int) uint64 {
	start := band * ix.rows
	h := uint64(14695981039346656037)
	for _, v := range sig[start : start+ix.rows] {
		h = (h ^ v) * 1099511628211
	}
	return h
}

// Insert adds a signature under the given id.
func (ix *Index) Insert(id int, sig Signature) {
	if len(sig) < ix.bands*ix.rows {
		panic("minhash: signature too short for index")
	}
	ix.sigs[id] = sig
	for b := 0; b < ix.bands; b++ {
		k := ix.bandKey(sig, b)
		ix.tables[b][k] = append(ix.tables[b][k], id)
	}
}

// Query returns the ids of all candidate signatures sharing at least one
// band with sig, excluding duplicates.
func (ix *Index) Query(sig Signature) []int {
	if len(sig) < ix.bands*ix.rows {
		panic("minhash: signature too short for index")
	}
	var seen map[int]bool
	var out []int
	for b := 0; b < ix.bands; b++ {
		for _, id := range ix.tables[b][ix.bandKey(sig, b)] {
			if seen == nil {
				seen = make(map[int]bool)
			}
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// QueryBest returns the candidate with the highest estimated Jaccard
// similarity to sig, provided it is at least minSim. ok is false when no
// candidate qualifies.
func (ix *Index) QueryBest(sig Signature, minSim float64) (id int, sim float64, ok bool) {
	best := -1
	bestSim := -1.0
	for _, cand := range ix.Query(sig) {
		if s := EstimateJaccard(sig, ix.sigs[cand]); s > bestSim {
			best, bestSim = cand, s
		}
	}
	if best < 0 || bestSim < minSim {
		return 0, 0, false
	}
	return best, bestSim, true
}

// Len returns the number of indexed signatures.
func (ix *Index) Len() int { return len(ix.sigs) }
