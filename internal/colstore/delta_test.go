package colstore

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"mistique/internal/durable"
	"mistique/internal/faultfs"
)

// Delta-generation suite: PutColumnDelta stores cross-version chunks as
// XOR residuals against the parent version's chunk. Every test here holds
// the package's one invariant above all: reads are bit-exact or answer a
// recoverable sentinel — a delta chain must never change what a query
// sees, only how many bytes back it.

// perturbCol returns a copy of base with a contiguous window of values
// nudged — the shape of one fine-tuning epoch, where most activations
// move slightly or not at all. fraction controls the window size; seed
// picks its position and magnitude so distinct versions differ.
func perturbCol(base []float32, seed int64, fraction float64) []float32 {
	out := append([]float32(nil), base...)
	n := int(float64(len(out)) * fraction)
	if n < 1 {
		n = 1
	}
	start := int(uint64(seed*7919) % uint64(len(out)-n+1))
	for i := start; i < start+n; i++ {
		out[i] += float32(seed%13+1) * 0.5
	}
	return out
}

// vkey names one column of one model version.
func vkey(version string) ColumnKey {
	return key(version, "act", "c0", 0)
}

// deltaDepth returns the delta-chain depth of a stored column (0 = stored
// full or not stored), from resident metadata only.
func deltaDepth(s *Store, k ColumnKey) int {
	id, ok := s.Lookup(k)
	if !ok {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deltas[id].Depth
}

func TestDeltaPutRoundTrip(t *testing.T) {
	s := openTest(t, Config{})
	base := randCol(512, 1)
	child := perturbCol(base, 2, 0.1)

	r0, err := s.PutColumn(vkey("v0"), base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r0.Delta {
		t.Fatalf("plain put reported delta: %+v", r0)
	}
	r1, err := s.PutColumnDelta(vkey("v1"), child, nil, vkey("v0"))
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Delta || r1.Depth != 1 || r1.Deduped {
		t.Fatalf("similar child not delta-encoded: %+v", r1)
	}
	mustReadExact(t, s, map[ColumnKey][]float32{vkey("v0"): base, vkey("v1"): child})
	if d := deltaDepth(s, vkey("v1")); d != 1 {
		t.Fatalf("DeltaDepth(v1) = %d, want 1", d)
	}
	if d := deltaDepth(s, vkey("v0")); d != 0 {
		t.Fatalf("DeltaDepth(v0) = %d, want 0", d)
	}
	if d := s.MaxDeltaDepth("v1", "act"); d != 1 {
		t.Fatalf("MaxDeltaDepth(v1) = %d, want 1", d)
	}
	st := s.Stats()
	if st.DeltaChunks != 1 || st.DeltaBytes <= 0 {
		t.Fatalf("delta accounting %+v", st)
	}
}

// TestDeltaChainColdReads builds a 4-deep chain with every generation in
// its own partition (tiny partition target), then forces the cold read
// paths: DropCache + read resolves via chunkRef's recursive page-in, and
// a fresh Open over the directory resolves the whole chain from the
// manifest's delta registry — newest version first, so the deepest
// recursion runs before any base is warm.
func TestDeltaChainColdReads(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{PartitionTargetBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	vals := map[ColumnKey][]float32{vkey("v0"): randCol(512, 1)}
	if _, err := s.PutColumn(vkey("v0"), vals[vkey("v0")], nil); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		parent, child := vkey(fmt.Sprintf("v%d", i-1)), vkey(fmt.Sprintf("v%d", i))
		vals[child] = perturbCol(vals[parent], int64(i), 0.1)
		r, err := s.PutColumnDelta(child, vals[child], nil, parent)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Delta || r.Depth != i {
			t.Fatalf("v%d: %+v, want delta at depth %d", i, r, i)
		}
		if r.ID.Partition != int64(i) {
			t.Fatalf("v%d landed in partition %d, want its own partition %d", i, r.ID.Partition, i)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.DropCache(); err != nil {
		t.Fatal(err)
	}
	mustReadExact(t, s, vals)

	s2, err := Open(dir, Config{PartitionTargetBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if !clean(s2.LastRecovery()) {
		t.Fatalf("recovery not clean: %+v", s2.LastRecovery())
	}
	// Chain metadata restored from the manifest, before any page-in.
	for i := 0; i <= 4; i++ {
		if d := deltaDepth(s2, vkey(fmt.Sprintf("v%d", i))); d != i {
			t.Fatalf("reopened DeltaDepth(v%d) = %d, want %d", i, d, i)
		}
	}
	// Deepest first: GetColumn(v4) must recursively page in v3..v0.
	got, err := s2.GetColumn(vkey("v4"))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range vals[vkey("v4")] {
		if got[i] != w {
			t.Fatalf("v4 value %d wrong after cold chain resolution", i)
		}
	}
	mustReadExact(t, s2, vals)
}

// TestDeltaFallbacksStoreFull: every precondition failure degrades to a
// plain full store — never an error, never wrong bytes.
func TestDeltaFallbacksStoreFull(t *testing.T) {
	base := randCol(512, 1)
	similar := perturbCol(base, 3, 0.1)

	check := func(t *testing.T, s *Store, k ColumnKey, vals []float32, r PutResult) {
		t.Helper()
		if r.Delta || r.Depth != 0 {
			t.Fatalf("fallback still delta-encoded: %+v", r)
		}
		mustReadExact(t, s, map[ColumnKey][]float32{k: vals})
	}

	t.Run("missing-parent", func(t *testing.T) {
		s := openTest(t, Config{})
		r, err := s.PutColumnDelta(vkey("v1"), similar, nil, vkey("nope"))
		if err != nil {
			t.Fatal(err)
		}
		check(t, s, vkey("v1"), similar, r)
	})
	t.Run("self-parent", func(t *testing.T) {
		s := openTest(t, Config{})
		r, err := s.PutColumnDelta(vkey("v1"), similar, nil, vkey("v1"))
		if err != nil {
			t.Fatal(err)
		}
		check(t, s, vkey("v1"), similar, r)
	})
	t.Run("dissimilar", func(t *testing.T) {
		s := openTest(t, Config{})
		if _, err := s.PutColumn(vkey("v0"), base, nil); err != nil {
			t.Fatal(err)
		}
		other := randCol(512, 999) // disjoint value set: Jaccard ~ 0
		r, err := s.PutColumnDelta(vkey("v1"), other, nil, vkey("v0"))
		if err != nil {
			t.Fatal(err)
		}
		check(t, s, vkey("v1"), other, r)
	})
	t.Run("disabled", func(t *testing.T) {
		s := openTest(t, Config{DeltaMaxDepth: -1})
		if _, err := s.PutColumn(vkey("v0"), base, nil); err != nil {
			t.Fatal(err)
		}
		r, err := s.PutColumnDelta(vkey("v1"), similar, nil, vkey("v0"))
		if err != nil {
			t.Fatal(err)
		}
		check(t, s, vkey("v1"), similar, r)
	})
	t.Run("identical-dedups", func(t *testing.T) {
		// An unchanged generation is exact-dedup's job, not delta's.
		s := openTest(t, Config{})
		r0, err := s.PutColumn(vkey("v0"), base, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.PutColumnDelta(vkey("v1"), base, nil, vkey("v0"))
		if err != nil {
			t.Fatal(err)
		}
		if !r.Deduped || r.Delta || r.ID != r0.ID {
			t.Fatalf("identical generation not deduped: %+v", r)
		}
	})
}

// TestDeltaDuplicateSkipsSimilarityWork: an exact duplicate of a parent
// whose partition was evicted is deduped by its content hash alone — no
// page-in of the parent, no MinHash signature — while a drifted generation
// through the same path pays for both. Counters, not timing, show it.
func TestDeltaDuplicateSkipsSimilarityWork(t *testing.T) {
	s := openTest(t, Config{Mode: ModeSimilarity})
	base := randCol(512, 1)
	r0, err := s.PutColumn(vkey("v0"), base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DropCache(); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	r, err := s.PutColumnDelta(vkey("v1"), base, nil, vkey("v0"))
	if err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if !r.Deduped || r.ID != r0.ID {
		t.Fatalf("duplicate generation not deduped: %+v", r)
	}
	if after.DiskReads != before.DiskReads || after.ChunksSigned != before.ChunksSigned {
		t.Fatalf("duplicate put did similarity work: disk reads %d -> %d, signed %d -> %d",
			before.DiskReads, after.DiskReads, before.ChunksSigned, after.ChunksSigned)
	}

	// The counters see the work when it is due.
	r, err = s.PutColumnDelta(vkey("v2"), perturbCol(base, 3, 0.1), nil, vkey("v0"))
	if err != nil {
		t.Fatal(err)
	}
	drifted := s.Stats()
	if !r.Delta || drifted.DiskReads != after.DiskReads+1 || drifted.ChunksSigned != after.ChunksSigned+1 {
		t.Fatalf("drifted put: %+v, disk reads %d -> %d, signed %d -> %d",
			r, after.DiskReads, drifted.DiskReads, after.ChunksSigned, drifted.ChunksSigned)
	}
}

// TestDeltaChainDepthBound: with DeltaMaxDepth 2 the chain restarts full
// every third generation — depths 0,1,2,0,1 — bounding read amplification.
func TestDeltaChainDepthBound(t *testing.T) {
	s := openTest(t, Config{DeltaMaxDepth: 2})
	vals := randCol(512, 1)
	if _, err := s.PutColumn(vkey("v0"), vals, nil); err != nil {
		t.Fatal(err)
	}
	wantDepths := []int{1, 2, 0, 1}
	store := map[ColumnKey][]float32{vkey("v0"): vals}
	for i, want := range wantDepths {
		parent, child := vkey(fmt.Sprintf("v%d", i)), vkey(fmt.Sprintf("v%d", i+1))
		vals = perturbCol(vals, int64(i+1), 0.1)
		store[child] = vals
		r, err := s.PutColumnDelta(child, vals, nil, parent)
		if err != nil {
			t.Fatal(err)
		}
		if r.Depth != want || r.Delta != (want > 0) {
			t.Fatalf("%s: depth %d delta=%v, want depth %d", child, r.Depth, r.Delta, want)
		}
	}
	mustReadExact(t, s, store)
}

// TestCompactCollapsesDeltaChains: reopening a 4-deep chain under a
// tighter DeltaMaxDepth and compacting must rewrite the over-deep tail
// chunks to full — depths drop, reads stay bit-exact, and the collapse
// is durable across DropCache and reopen.
func TestCompactCollapsesDeltaChains(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	vals := map[ColumnKey][]float32{vkey("v0"): randCol(512, 1)}
	if _, err := s.PutColumn(vkey("v0"), vals[vkey("v0")], nil); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		parent, child := vkey(fmt.Sprintf("v%d", i-1)), vkey(fmt.Sprintf("v%d", i))
		vals[child] = perturbCol(vals[parent], int64(i), 0.1)
		r, err := s.PutColumnDelta(child, vals[child], nil, parent)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Delta || r.Depth != i {
			t.Fatalf("v%d: %+v, want delta depth %d", i, r, i)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Config{DeltaMaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	// v3 (depth 3) and v4 (depth 4) exceed the new bound: collapsed to
	// full. v1 and v2 stay deltas.
	for i, want := range []int{0, 1, 2, 0, 0} {
		if d := deltaDepth(s2, vkey(fmt.Sprintf("v%d", i))); d != want {
			t.Fatalf("post-collapse DeltaDepth(v%d) = %d, want %d", i, d, want)
		}
	}
	if st := s2.Stats(); st.DeltaCollapsed != 2 || st.DeltaChunks != 2 {
		t.Fatalf("collapse stats: collapsed=%d chunks=%d, want 2/2", st.DeltaCollapsed, st.DeltaChunks)
	}
	mustReadExact(t, s2, vals)
	if err := s2.DropCache(); err != nil {
		t.Fatal(err)
	}
	mustReadExact(t, s2, vals)

	// The collapse reached disk: a fresh Open sees the shortened chains.
	s3, err := Open(dir, Config{DeltaMaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !clean(s3.LastRecovery()) {
		t.Fatalf("recovery not clean after collapse: %+v", s3.LastRecovery())
	}
	for i, want := range []int{0, 1, 2, 0, 0} {
		if d := deltaDepth(s3, vkey(fmt.Sprintf("v%d", i))); d != want {
			t.Fatalf("reopened DeltaDepth(v%d) = %d, want %d", i, d, want)
		}
	}
	mustReadExact(t, s3, vals)
}

// TestDeltaLostBasePropagation: deleting the base generation's partition
// file takes the whole chain down together at the next Open — dependents
// answer ErrUnavailable (lost-but-healable: their own files stay in
// place, NOT quarantined) and re-logging heals everything.
func TestDeltaLostBasePropagation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{PartitionTargetBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	vals := map[ColumnKey][]float32{vkey("v0"): randCol(512, 1)}
	if _, err := s.PutColumn(vkey("v0"), vals[vkey("v0")], nil); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		parent, child := vkey(fmt.Sprintf("v%d", i-1)), vkey(fmt.Sprintf("v%d", i))
		vals[child] = perturbCol(vals[parent], int64(i), 0.1)
		r, err := s.PutColumnDelta(child, vals[child], nil, parent)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Delta {
			t.Fatalf("v%d stored full; test needs a chain", i)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, partFileName(0, 0))); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Config{PartitionTargetBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	rep := s2.LastRecovery()
	if len(rep.MissingPartitions) != 1 || rep.MissingPartitions[0] != 0 {
		t.Fatalf("missing partitions %v, want [0]", rep.MissingPartitions)
	}
	// The base chunk and both dependent generations are lost together.
	if len(rep.LostChunks) != 3 {
		t.Fatalf("lost chunks %v, want the whole 3-chunk chain", rep.LostChunks)
	}
	for k := range vals {
		if _, err := s2.GetColumn(k); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("column %s: %v, want ErrUnavailable", k, err)
		}
	}
	// The dependents' files are intact and must stay where they are.
	for pid := int64(1); pid <= 2; pid++ {
		if _, err := os.Stat(filepath.Join(dir, partFileName(pid, 0))); err != nil {
			t.Fatalf("dependent partition %d file gone: %v", pid, err)
		}
		if _, err := os.Stat(filepath.Join(dir, corruptDirName, partFileName(pid, 0))); !os.IsNotExist(err) {
			t.Fatalf("dependent partition %d quarantined for a lost base", pid)
		}
	}
	// Heal by re-logging (the engine's rerun fallback), then compact the
	// dead chain away and check it all survives a reopen.
	relog(t, s2, vals)
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	mustReadExact(t, s2, vals)
	s3, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustReadExact(t, s3, vals)
}

// TestCompactPinsDeltaBasePartition: a partition hosting a chunk that a
// cold dependent references as its delta base must not be remapped by
// Compact, even when it holds garbage — the dependent's on-disk base id
// would dangle. The garbage is retained and the dependent still
// reconstructs bit-exact from disk.
func TestCompactPinsDeltaBasePartition(t *testing.T) {
	dir := t.TempDir()
	// Two 2 KiB chunks fit one partition; the second append seals it.
	s, err := Open(dir, Config{PartitionTargetBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	junk := key("junk", "act", "c0", 0)
	if _, err := s.PutColumn(junk, randCol(512, 50), nil); err != nil {
		t.Fatal(err)
	}
	base := randCol(512, 1)
	r0, err := s.PutColumn(vkey("v0"), base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r0.ID != (ChunkID{Partition: 0, Index: 1}) {
		t.Fatalf("base chunk at %+v, want partition 0 index 1", r0.ID)
	}
	child := perturbCol(base, 2, 0.1)
	r1, err := s.PutColumnDelta(vkey("v1"), child, nil, vkey("v0"))
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Delta || r1.ID.Partition == 0 {
		t.Fatalf("child not a cross-partition delta: %+v", r1)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := s.DeleteModel("junk"); n != 1 {
		t.Fatalf("deleted %d columns, want 1", n)
	}
	// Cold dependent: its on-disk image holds the base's pre-compact id.
	if err := s.DropCache(); err != nil {
		t.Fatal(err)
	}
	dropped, _, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("compact dropped %d chunks out of a pinned partition", dropped)
	}
	mustReadExact(t, s, map[ColumnKey][]float32{vkey("v0"): base, vkey("v1"): child})

	// And from a fresh process: the cold chain must still resolve.
	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustReadExact(t, s2, map[ColumnKey][]float32{vkey("v0"): base, vkey("v1"): child})
}

// TestSerializeDeltaImageV3 pins the on-disk format split: partitions
// holding any delta chunk serialize as image v3 and parse back with the
// chain metadata intact (payload unreconstructed); all-full partitions
// keep emitting the v2 image so old binaries read them unchanged.
func TestSerializeDeltaImageV3(t *testing.T) {
	full := testChunks(t, 2)
	img2 := serializePartition(nil, full)
	if v := int(img2[4]) | int(img2[5])<<8; v != partVersion {
		t.Fatalf("all-full image stamped version %d, want %d", v, partVersion)
	}

	base := full[0]
	residual := xorEnc(full[1].enc, base.enc)
	d := &chunk{
		count:   full[1].count,
		q:       full[1].q,
		delta:   residual,
		base:    ChunkID{Partition: 0, Index: 0},
		depth:   1,
		fullCRC: crc32.Checksum(full[1].enc, durable.Castagnoli),
	}
	img3 := serializePartition(nil, []*chunk{base, d})
	if v := int(img3[4]) | int(img3[5])<<8; v != partVersionDelta {
		t.Fatalf("delta image stamped version %d, want %d", v, partVersionDelta)
	}
	parsed, _, err := parsePartition(img3)
	if err != nil {
		t.Fatal(err)
	}
	got := parsed[1]
	if !got.isDelta() || got.enc != nil || got.base != d.base || got.depth != 1 || got.fullCRC != d.fullCRC {
		t.Fatalf("delta chunk metadata lost across the round trip: %+v", got)
	}
	if !bytes.Equal(got.delta, residual) {
		t.Fatal("residual bytes changed across the round trip")
	}
	// Resolution restores the original payload bit-exact.
	if _, _, err := resolveDeltaChunks(0, parsed, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(parsed[1].enc, full[1].enc) {
		t.Fatal("reconstructed payload differs from the original")
	}
}

// TestDeltaReconstructionCRCCatchesWrongBase: resolving a residual
// against the wrong base generation must fail the chunk CRC — a hard
// error, never silently wrong values.
func TestDeltaReconstructionCRCCatchesWrongBase(t *testing.T) {
	full := testChunks(t, 3)
	residual := xorEnc(full[1].enc, full[0].enc)
	d := &chunk{
		count:   full[1].count,
		q:       full[1].q,
		delta:   residual,
		base:    ChunkID{Partition: 0, Index: 2}, // wrong base
		depth:   1,
		fullCRC: crc32.Checksum(full[1].enc, durable.Castagnoli),
	}
	_, _, err := resolveDeltaChunks(0, []*chunk{full[0], d, full[2]}, nil)
	if err == nil {
		t.Fatal("wrong-base reconstruction passed the CRC")
	}
}

// TestCrashMatrixDeltaFlush kills the flush that publishes a delta
// partition at every injection point. The parent generation is committed
// and must read back exactly; the delta children may read exactly or be
// gone, never wrong, and re-logging heals.
func TestCrashMatrixDeltaFlush(t *testing.T) {
	for _, fp := range crashPoints() {
		fp := fp
		t.Run(fp.name, func(t *testing.T) {
			dir := t.TempDir()
			inj := faultfs.NewInjector(nil)
			pinProcs(t, 1)
			s, err := Open(dir, Config{FS: inj})
			if err != nil {
				t.Fatal(err)
			}
			committed := fillStore(t, s, "v0", 4, 1000)
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			fresh := make(map[ColumnKey][]float32, len(committed))
			for pk, pv := range committed {
				ck := key("v1", pk.Intermediate, pk.Column, pk.Block)
				cv := perturbCol(pv, int64(len(ck.Column)), 0.1)
				r, err := s.PutColumnDelta(ck, cv, nil, pk)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Delta {
					t.Fatalf("child %s stored full; crash test needs delta chunks in flight", ck)
				}
				fresh[ck] = cv
			}
			inj.Arm(fp.fault)
			if err := s.Flush(); err == nil {
				t.Fatalf("flush survived a crash at %s", fp.name)
			}
			if !inj.Fired() {
				t.Fatalf("fault %s never fired", fp.name)
			}

			s2, err := Open(dir, Config{})
			if err != nil {
				t.Fatalf("reopen after crash at %s: %v", fp.name, err)
			}
			mustReadExact(t, s2, committed)
			verifyNoWrongValues(t, s2, fresh)
			relog(t, s2, fresh)
			if err := s2.Flush(); err != nil {
				t.Fatalf("flush after recovery: %v", err)
			}
			s3, err := Open(dir, Config{})
			if err != nil {
				t.Fatal(err)
			}
			mustReadExact(t, s3, committed)
			mustReadExact(t, s3, fresh)
		})
	}
}
