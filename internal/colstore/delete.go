package colstore

import (
	"cmp"
	"fmt"
	"os"
	"slices"
)

// Deletion and compaction. Chunks are shared between logical columns by
// de-duplication, so deletes are logical (drop the column→chunk mapping)
// and space is reclaimed by Compact, which rewrites partitions without
// their unreferenced chunks. This is the lifecycle piece a real deployment
// needs once old model versions age out.

// goneLocked reports whether a chunk is unreadable: lost, in a
// quarantined or vanished partition, or past a torn file's tail.
func (s *Store) goneLocked(id ChunkID) bool {
	if _, bad := s.lostChunks[id]; bad {
		return true
	}
	p, ok := s.parts[id.Partition]
	if !ok || p.lost {
		return true
	}
	return p.chunks == nil && p.diskChunks >= 0 && id.Index >= p.diskChunks
}

func cmpChunkID(a, b ChunkID) int {
	return cmp.Or(cmp.Compare(a.Partition, b.Partition), cmp.Compare(a.Index, b.Index))
}

// collapseChainsLocked rewrites delta chunks back to full form when their
// recorded chain depth exceeds the configured bound (possible after a
// DeltaMaxDepth change) or their base chunk is gone. Collapse needs the
// reconstructed payload, which is already resident or restored by page-in;
// a chunk whose base vanished before it was ever reconstructed stays lost
// until the version is re-logged. Each collapse releases its base's
// reference at once, so Compact's garbage pass sees it; directory depths
// follow in Compact's remapLocked. Caller holds flushMu and mu.
func (s *Store) collapseChainsLocked() {
	if len(s.deltas) == 0 {
		return
	}
	var ids []ChunkID
	for id, d := range s.deltas {
		if d.Depth > s.cfg.DeltaMaxDepth || s.goneLocked(d.Base) {
			ids = append(ids, id)
		}
	}
	slices.SortFunc(ids, cmpChunkID)
	for _, id := range ids {
		if _, bad := s.lostChunks[id]; bad {
			continue // unreconstructable until healed by re-logging
		}
		p, ok := s.parts[id.Partition]
		if !ok || p.lost {
			continue
		}
		chunks, err := s.partitionChunksLocked(id.Partition, p)
		if err != nil {
			continue // quarantined by the failed load; chunks now lost
		}
		if id.Index < 0 || id.Index >= len(chunks) {
			continue
		}
		c := chunks[id.Index]
		if !c.isDelta() {
			s.dropDeltaLocked(id)
			continue
		}
		if c.enc == nil {
			continue // base gone before reconstruction: marked lost by the load
		}
		freed := int64(len(c.delta))
		// Clearing only the delta fields is safe for concurrent readers:
		// they touch enc/count/q, which stay untouched (see chunk docs).
		// Dependents of this chunk keep reconstructing: their residuals
		// apply against enc, which is byte-identical before and after.
		c.delta, c.base, c.depth, c.fullCRC = nil, ChunkID{}, 0, 0
		s.dropDeltaLocked(id)
		p.dirty = true
		p.bytes -= freed
		if p.chunks != nil {
			s.memBytes -= freed
		}
		s.stats.DeltaChunks--
		s.stats.DeltaBytes -= freed
		s.stats.DeltaCollapsed++
	}
}

// DeleteModel drops every column mapping belonging to a model. Returns the
// number of logical columns removed. Physical bytes are reclaimed by the
// next Compact. O(columns dropped).
func (s *Store) DeleteModel(model string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for interm := range s.dirs[model] {
		removed += s.dropDirLocked(model, interm)
	}
	return removed
}

// DeleteColumns drops the column mappings of one intermediate. The
// engine's recovery path uses it before re-materializing an intermediate
// whose chunks were quarantined, so the fresh puts are stored instead of
// colliding with dead mappings. O(columns dropped).
func (s *Store) DeleteColumns(model, interm string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropDirLocked(model, interm)
}

// partitionChunksLocked returns a partition's chunks, paging them in from
// disk if evicted.
func (s *Store) partitionChunksLocked(pid int64, p *partition) ([]*chunk, error) {
	if p.chunks != nil {
		return p.chunks, nil
	}
	loaded, err := s.loadPartitionLocked(pid)
	if err != nil {
		return nil, err
	}
	return loaded.chunks, nil
}

// Compact rewrites every partition containing unreferenced chunks,
// dropping them and remapping the surviving chunks' ids, and every
// partition whose on-disk file was written by a different codec than the
// store is configured with — so compaction doubles as the codec
// migration tool. Returns the number of chunks dropped and encoded bytes
// reclaimed. Partitions that become empty are deleted outright. The
// manifest is rewritten, so the store stays reopenable. The index
// surgery happens under the index lock; the rewritten partition files
// are then codec-compressed and written concurrently, like Flush.
//
// Compaction is crash-safe: a rewrite remaps chunk indices, so it goes to
// a NEW file generation, and the manifest write flips old→new atomically.
// Old-generation files are removed only after the manifest is durable; a
// crash at any point leaves a manifest whose referenced files are intact
// (stale leftovers are quarantined by the next Open's recovery sweep).
//
// Compact is also the delta-chain maintenance pass: chains deeper than
// DeltaMaxDepth (possible after a config change) or whose base is gone are
// collapsed back to full chunks first, and partitions hosting chunks that
// other partitions' deltas reconstruct through are pinned — no index
// remap — so cold dependents' on-disk base references stay valid.
func (s *Store) Compact() (droppedChunks int, reclaimed int64, err error) {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.om.compactions.Inc()
	s.mu.Lock()
	// Collapse over-deep and orphaned delta chains first: collapsing frees
	// base references, so chunks kept alive only by a now-collapsed chain
	// become garbage this same pass can reclaim.
	s.collapseChainsLocked()
	var rewrites []flushTask
	// removals collects files to delete after the manifest commits: old
	// generations of rewritten partitions and files of emptied ones.
	var removals []string
	// remaps collects each rewritten partition's index table; every
	// structure naming chunk ids follows them after the partition pass.
	remaps := make(map[int64][]int)

	// Column mappings per partition: a quarantined partition no column
	// names any more is a dead tombstone.
	mapped := make(map[int64]int)
	s.eachColumnLocked(func(_ ColumnKey, id ChunkID) { mapped[id.Partition]++ })

	// Partitions hosting a chunk that some OTHER partition's delta
	// reconstructs through are pinned: dropping any chunk there would shift
	// the indices the dependents' on-disk base references name, and those
	// dependents may be cold (their files cannot be fixed up without
	// rewriting them too). Pinned partitions keep all their chunks this
	// round; the garbage is reclaimed once the dependent chains collapse or
	// age out. Same-partition references are not pinning — chunk and base
	// remap through the same table below.
	pinned := make(map[int64]bool)
	for id, d := range s.deltas {
		if d.Base.Partition != id.Partition {
			pinned[d.Base.Partition] = true
		}
	}

	// The partition pass reads the reference counts as they stood after
	// the collapse; remapLocked recounts them. A partition that fails to
	// load ends the pass, and what the pass did before it is committed.
	var loadErr error
	for pid, p := range s.parts {
		if p.lost {
			// Quarantined: nothing readable to rewrite. Once no column
			// references it (every mapping healed, re-logged or deleted),
			// the tombstone itself is garbage — drop it so the manifest
			// forgets it. The quarantined file stays in corrupt/ for
			// post-mortem.
			if mapped[pid] == 0 {
				delete(s.parts, pid)
				s.stats.Partitions--
			}
			continue
		}
		chunks, err := s.partitionChunksLocked(pid, p)
		if err != nil {
			loadErr = err
			break
		}
		hasGarbage := false
		if !pinned[pid] {
			for i := range chunks {
				if s.refLocked(ChunkID{Partition: pid, Index: i}, 0) == 0 {
					hasGarbage = true
					break
				}
			}
		}
		if !hasGarbage {
			// Fully live (or pinned) — but still rewrite, identity-remapped,
			// when the on-disk file was written by a different codec than
			// the store is configured with (compaction doubles as the codec
			// migration tool) or when a chain collapse above dirtied it (the
			// collapse must reach disk before the manifest forgets the
			// chain). Unsniffable files are recovery's problem, not
			// compaction's — leave them alone.
			if !p.onDisk {
				continue
			}
			if !p.dirty {
				if id, err := fileCodecID(s.partPathGen(pid, p.gen)); err != nil || id == s.codec.ID() {
					continue
				}
			}
		}

		// Build the surviving chunk list and the old->new index table.
		remap := make([]int, len(chunks)+1)
		var live []*chunk
		var liveBytes int64
		for i, c := range chunks {
			id := ChunkID{Partition: pid, Index: i}
			if s.refLocked(id, 0) == 0 && !pinned[pid] {
				remap[i] = -1
				droppedChunks++
				reclaimed += int64(len(c.enc))
				if c.isDelta() {
					s.stats.DeltaChunks--
					s.stats.DeltaBytes -= int64(len(c.delta))
					delete(s.deltas, id)
				}
				continue
			}
			remap[i] = len(live)
			live = append(live, c)
			liveBytes += int64(len(c.enc) + len(c.delta))
		}
		remap[len(chunks)] = len(live)
		remaps[pid] = remap
		for _, c := range live {
			if c.isDelta() && c.base.Partition == pid {
				c.base.Index = remap[c.base.Index]
			}
		}

		if resident := p.chunks != nil; resident {
			s.memBytes += liveBytes - p.bytes
		}
		p.chunks = live
		p.bytes = liveBytes
		p.dirty = true

		if len(live) == 0 {
			// Empty partition: drop it from the index now, remove its file
			// only after the manifest no longer references it.
			if p.onDisk {
				removals = append(removals, s.partPathGen(pid, p.gen))
			}
			delete(s.parts, pid)
			s.stats.Partitions--
			continue
		}
		if p.onDisk {
			// The partition is resident after the remap and on-disk files
			// never receive appends, so the snapshot is stable; mark it
			// flushing to fence off the evictor and rewrite concurrently —
			// under a bumped file generation, since the chunk indices moved.
			removals = append(removals, s.partPathGen(pid, p.gen))
			p.gen++
			p.flushing = true
			rewrites = append(rewrites, flushTask{p: p, chunks: live, path: s.partPathGen(pid, p.gen)})
		}
	}
	s.remapLocked(remaps)
	s.stats.StoredBytes -= reclaimed
	s.mu.Unlock()

	werr := s.writeSnapshots(rewrites)

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range rewrites {
		t.p.flushing = false
	}
	if werr != nil {
		return droppedChunks, reclaimed, werr
	}
	if err := s.writeManifestLocked(); err != nil {
		return droppedChunks, reclaimed, err
	}
	// The manifest is durable; the old generations are now garbage. Best
	// effort: a failed (or crashed) removal leaves files the next Open
	// quarantines.
	for _, path := range removals {
		if err := s.fs.Remove(path); err != nil && !os.IsNotExist(err) {
			break // crashed/failing fs: recovery sweeps the rest later
		}
	}
	return droppedChunks, reclaimed, loadErr
}

// VerifyReport summarizes a store integrity check.
type VerifyReport struct {
	Partitions    int
	Chunks        int
	Columns       int
	GarbageChunks int
	// Problems lists human-readable integrity violations (empty = healthy).
	Problems []string
}

// Verify walks every partition, decodes every chunk, cross-checks the
// column directories, and recounts every chunk's references (columns plus
// delta generations using it as their base) against the maintained counts
// — the fsck of the store. It reads all data, so it is O(store size).
func (s *Store) Verify() (*VerifyReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := &VerifyReport{}
	refs := make(map[ChunkID]int32)
	s.eachColumnLocked(func(_ ColumnKey, id ChunkID) { refs[id]++ })
	for _, d := range s.deltas {
		refs[d.Base]++
	}
	for id, n := range refs {
		if got := s.refLocked(id, 0); s.parts[id.Partition] != nil && got != n {
			rep.Problems = append(rep.Problems, fmt.Sprintf("chunk %v refcount %d, recount %d", id, got, n))
		}
	}
	for pid, p := range s.parts {
		for i, n := range p.refs {
			if id := (ChunkID{Partition: pid, Index: i}); n != 0 && refs[id] == 0 {
				rep.Problems = append(rep.Problems, fmt.Sprintf("chunk %v refcount %d, recount 0", id, n))
			}
		}
	}

	// A quarantined partition is only a problem while columns still point
	// into it — that data is unavailable until healed. Once every mapping
	// has been healed or deleted, the tombstone is just garbage awaiting
	// Compact.
	lostRefs := make(map[int64]int)
	s.eachColumnLocked(func(_ ColumnKey, id ChunkID) {
		rep.Columns++
		if _, bad := s.lostChunks[id]; bad {
			lostRefs[id.Partition]++
		} else if p, ok := s.parts[id.Partition]; ok && p.lost {
			lostRefs[id.Partition]++
		}
	})

	for pid, p := range s.parts {
		rep.Partitions++
		if p.lost {
			if n := lostRefs[pid]; n > 0 {
				rep.Problems = append(rep.Problems,
					fmt.Sprintf("partition %d quarantined: %d columns unavailable (rerun or re-log to heal)", pid, n))
			}
			continue
		}
		chunks, err := s.partitionChunksLocked(pid, p)
		if err != nil {
			rep.Problems = append(rep.Problems, fmt.Sprintf("partition %d unreadable: %v", pid, err))
			continue
		}
		for i, c := range chunks {
			rep.Chunks++
			id := ChunkID{Partition: pid, Index: i}
			if _, bad := s.lostChunks[id]; bad {
				rep.Problems = append(rep.Problems,
					fmt.Sprintf("chunk %v unavailable (lost base or torn tail): heal by re-logging or re-run", id))
				continue
			}
			vals, err := c.q.Decode(make([]float32, 0, c.count), c.enc, c.count)
			if err != nil {
				rep.Problems = append(rep.Problems, fmt.Sprintf("chunk %v undecodable: %v", id, err))
				continue
			}
			if len(vals) != c.count {
				rep.Problems = append(rep.Problems, fmt.Sprintf("chunk %v decoded %d values, header says %d", id, len(vals), c.count))
			}
			if refs[id] == 0 {
				rep.GarbageChunks++
			}
		}
	}
	// Every column mapping must point at an existing chunk.
	s.eachColumnLocked(func(k ColumnKey, id ChunkID) {
		p, ok := s.parts[id.Partition]
		if !ok {
			rep.Problems = append(rep.Problems, fmt.Sprintf("column %s points at missing partition %d", k, id.Partition))
			return
		}
		chunks, err := s.partitionChunksLocked(id.Partition, p)
		if err != nil {
			return // already reported above
		}
		if id.Index < 0 || id.Index >= len(chunks) {
			rep.Problems = append(rep.Problems, fmt.Sprintf("column %s points at missing chunk %v", k, id))
		}
	})
	return rep, nil
}
