package minhash

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func setOf(xs ...uint64) map[uint64]struct{} {
	s := make(map[uint64]struct{}, len(xs))
	for _, x := range xs {
		s[x] = struct{}{}
	}
	return s
}

// sign computes the MinHash signature of a set of uint64 elements.
func sign(h *Hasher, set map[uint64]struct{}) Signature {
	sig := make(Signature, len(h.a))
	for i := range sig {
		sig[i] = math.MaxUint64
	}
	for x := range set {
		h.fold(sig, x)
	}
	return sig
}

func TestIdenticalSetsIdenticalSignatures(t *testing.T) {
	h := NewHasher(64, 1)
	a := sign(h, setOf(1, 2, 3, 4, 5))
	b := sign(h, setOf(5, 4, 3, 2, 1))
	if EstimateJaccard(a, b) != 1 {
		t.Fatal("identical sets must produce identical signatures")
	}
}

func TestDisjointSetsLowSimilarity(t *testing.T) {
	h := NewHasher(256, 2)
	a := sign(h, setOf(1, 2, 3, 4, 5, 6, 7, 8))
	b := sign(h, setOf(100, 200, 300, 400, 500, 600, 700, 800))
	if sim := EstimateJaccard(a, b); sim > 0.1 {
		t.Fatalf("disjoint sets estimated at %g", sim)
	}
}

func TestJaccardEstimateAccuracy(t *testing.T) {
	// Overlap 50 of 150 distinct total: true Jaccard = 50/150 = 1/3.
	h := NewHasher(512, 3)
	a := make(map[uint64]struct{})
	b := make(map[uint64]struct{})
	for i := uint64(0); i < 100; i++ {
		a[i] = struct{}{}
	}
	for i := uint64(50); i < 150; i++ {
		b[i] = struct{}{}
	}
	got := EstimateJaccard(sign(h, a), sign(h, b))
	if math.Abs(got-1.0/3.0) > 0.08 {
		t.Fatalf("Jaccard estimate %g, want ~0.333", got)
	}
}

func TestJaccardEstimateProperty(t *testing.T) {
	h := NewHasher(256, 4)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(100)
		overlap := rng.Intn(n)
		a := make(map[uint64]struct{})
		b := make(map[uint64]struct{})
		for i := 0; i < n; i++ {
			a[uint64(i)] = struct{}{}
		}
		for i := n - overlap; i < 2*n-overlap; i++ {
			b[uint64(i)] = struct{}{}
		}
		truth := float64(overlap) / float64(2*n-overlap)
		got := EstimateJaccard(sign(h, a), sign(h, b))
		return math.Abs(got-truth) < 0.15
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSignFloatsDiscretization(t *testing.T) {
	h := NewHasher(128, 5)
	a := []float32{1.0, 2.0, 3.0}
	b := []float32{1.004, 2.004, 2.996} // same buckets at width 0.01? no: different
	c := []float32{1.0001, 2.0001, 3.0001}
	sigA := h.SignFloats(a, 0.01)
	sigC := h.SignFloats(c, 0.01)
	if EstimateJaccard(sigA, sigC) != 1 {
		t.Fatal("values in the same buckets should hash identically")
	}
	_ = b
	// NaNs are mapped to a dedicated bucket and don't panic.
	sigN := h.SignFloats([]float32{float32(math.NaN())}, 0.01)
	if len(sigN) != 128 {
		t.Fatal("NaN signature length")
	}
	// bucket <= 0 means exact bit-pattern matching.
	exact := h.SignFloats(a, 0)
	if EstimateJaccard(exact, h.SignFloats(a, 0)) != 1 {
		t.Fatal("exact mode not deterministic")
	}
}

func TestIndexFindsSimilar(t *testing.T) {
	h := NewHasher(128, 6)
	ix := NewIndex(32, 4) // threshold ~ (1/32)^(1/4) ≈ 0.42
	base := make(map[uint64]struct{})
	for i := uint64(0); i < 200; i++ {
		base[i] = struct{}{}
	}
	ix.Insert(1, sign(h, base))

	// 90% overlapping set: must be found.
	near := make(map[uint64]struct{})
	for i := uint64(20); i < 220; i++ {
		near[i] = struct{}{}
	}
	id, sim, ok := ix.QueryBest(sign(h, near), 0.4)
	if !ok || id != 1 {
		t.Fatalf("near-duplicate not found: ok=%v id=%d sim=%g", ok, id, sim)
	}

	// Disjoint set: must not match at minSim 0.4.
	far := make(map[uint64]struct{})
	for i := uint64(10000); i < 10200; i++ {
		far[i] = struct{}{}
	}
	if _, _, ok := ix.QueryBest(sign(h, far), 0.4); ok {
		t.Fatal("disjoint set matched")
	}
}

func TestIndexMultipleCandidatesPicksBest(t *testing.T) {
	h := NewHasher(128, 7)
	ix := NewIndex(32, 4)
	mk := func(lo, hi uint64) Signature {
		s := make(map[uint64]struct{})
		for i := lo; i < hi; i++ {
			s[i] = struct{}{}
		}
		return sign(h, s)
	}
	ix.Insert(1, mk(0, 100)) // ~67% similar to query
	ix.Insert(2, mk(0, 80))  // 80% similar to query (subset)
	query := mk(0, 80)
	id, sim, ok := ix.QueryBest(query, 0.5)
	if !ok || id != 2 || sim != 1 {
		t.Fatalf("best candidate: ok=%v id=%d sim=%g, want id=2 sim=1", ok, id, sim)
	}
	if ix.Len() != 2 {
		t.Fatalf("Len=%d", ix.Len())
	}
}

// TestSignFloatsGolden pins signatures computed when hash61 still did its
// 64x64 multiply by hand instead of with bits.Mul64: any change to the hash
// family, the sampling stride or the discretization shows up here.
func TestSignFloatsGolden(t *testing.T) {
	h := NewHasher(8, 0x5155454e)
	rng := rand.New(rand.NewSource(1))
	vals := make([]float32, 1000)
	for i := range vals {
		vals[i] = rng.Float32()*100 - 50
	}
	vals[7] = float32(math.NaN()) // a sampled position (stride 7)
	for _, c := range []struct {
		bucket float64
		want   Signature
	}{
		{0.01, Signature{0x115c2556ba5ba1, 0x3b75aa495e7373, 0x1689defce02247, 0x2f1f16ce8b84bf, 0xedcc10a87abb0, 0x404fc062bb4c66, 0xd998d1379b7d3, 0x2ff1e53e39c706}},
		{0, Signature{0x87b51ade4835d, 0x4f701afc179fc2, 0x4d5b900db09aa5, 0x39ea476bdb2c2, 0x9b44676cd97fa, 0x97711e0f757dc8, 0x35f0160698fdee, 0xf57a09ed26c61}},
	} {
		got := h.SignFloats(vals, c.bucket)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Fatalf("bucket %g: signature %#v, want %#v", c.bucket, got, c.want)
			}
		}
	}
}

func TestHash61InRange(t *testing.T) {
	prop := func(a, b, x uint64) bool {
		return hash61(a%mersenne61, b%mersenne61, x) < mersenne61
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSignFloats1K(b *testing.B) {
	h := NewHasher(128, 9)
	vals := make([]float32, 1000)
	rng := rand.New(rand.NewSource(1))
	for i := range vals {
		vals[i] = rng.Float32() * 100
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.SignFloats(vals, 0.01)
	}
}
