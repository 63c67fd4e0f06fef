package colstore

// The column index: one directory per (model, intermediate), so no lookup,
// put or delete touches another intermediate's. Each directory keeps its
// deepest delta depth (what the cost model charges a READ), and each
// partition its chunks' reference counts (what Compact reclaims by); both
// are maintained at every mapping change instead of recomputed.

// noChunk marks an unmapped directory slot.
var noChunk = ChunkID{Partition: -1}

// directory maps a column name to its ordinal, and an ordinal to its
// chunk in each block's dense row.
type directory struct {
	ords   map[string]int
	blocks [][]ChunkID // [block][ordinal]
	depth  int         // deepest delta chain a mapped chunk sits on
}

// slot returns k's slot in its directory, nil if it has none.
func (s *Store) slot(k ColumnKey) *ChunkID {
	d := s.dirs[k.Model][k.Intermediate]
	if d == nil {
		return nil
	}
	o, ok := d.ords[k.Column]
	if !ok || k.Block < 0 || k.Block >= len(d.blocks) || o >= len(d.blocks[k.Block]) {
		return nil
	}
	return &d.blocks[k.Block][o]
}

// each calls fn on every mapped slot; fn may rewrite the id in place.
func (d *directory) each(fn func(id *ChunkID)) {
	for _, row := range d.blocks {
		for i := range row {
			if row[i] != noChunk {
				fn(&row[i])
			}
		}
	}
}

// idLocked resolves a column key. Caller holds mu.
func (s *Store) idLocked(k ColumnKey) (ChunkID, bool) {
	if p := s.slot(k); p != nil && *p != noChunk {
		return *p, true
	}
	return ChunkID{}, false
}

// mapLocked points k at id, releasing what its slot held. Caller holds mu.
func (s *Store) mapLocked(k ColumnKey, id ChunkID) {
	s.unmapLocked(k)
	if s.dirs[k.Model] == nil {
		s.dirs[k.Model] = make(map[string]*directory)
	}
	d := s.dirs[k.Model][k.Intermediate]
	if d == nil {
		d = &directory{ords: make(map[string]int)}
		s.dirs[k.Model][k.Intermediate] = d
	}
	o, ok := d.ords[k.Column]
	if !ok {
		o = len(d.ords)
		d.ords[k.Column] = o
	}
	for len(d.blocks) <= k.Block {
		d.blocks = append(d.blocks, nil)
	}
	for len(d.blocks[k.Block]) <= o {
		d.blocks[k.Block] = append(d.blocks[k.Block], noChunk)
	}
	d.blocks[k.Block][o] = id
	d.depth = max(d.depth, s.deltas[id].Depth)
	s.refLocked(id, 1)
}

// unmapLocked drops k's mapping, if any. Its directory's depth is
// recomputed only when the dropped chunk may have been the deepest.
// Caller holds mu.
func (s *Store) unmapLocked(k ColumnKey) {
	p := s.slot(k)
	if p == nil || *p == noChunk {
		return
	}
	id, d := *p, s.dirs[k.Model][k.Intermediate]
	*p = noChunk
	s.refLocked(id, -1)
	if dep := s.deltas[id].Depth; dep > 0 && dep == d.depth {
		d.depth = 0
		d.each(func(id *ChunkID) { d.depth = max(d.depth, s.deltas[*id].Depth) })
	}
}

// dropDirLocked releases every mapping of one intermediate and returns how
// many there were. A chunk left unreferenced can never be read again, so
// its lost mark goes with its last reference. Caller holds mu.
func (s *Store) dropDirLocked(model, interm string) int {
	d := s.dirs[model][interm]
	if d == nil {
		return 0
	}
	n := 0
	d.each(func(id *ChunkID) {
		n++
		if s.refLocked(*id, -1) == 0 {
			delete(s.lostChunks, *id)
		}
	})
	delete(s.dirs[model], interm)
	if len(s.dirs[model]) == 0 {
		delete(s.dirs, model)
	}
	return n
}

// eachColumnLocked calls fn for every mapped column. Caller holds mu.
func (s *Store) eachColumnLocked(fn func(k ColumnKey, id ChunkID)) {
	for model, ims := range s.dirs {
		for interm, d := range ims {
			for col, o := range d.ords {
				for b, row := range d.blocks {
					if o < len(row) && row[o] != noChunk {
						fn(ColumnKey{Model: model, Intermediate: interm, Column: col, Block: b}, row[o])
					}
				}
			}
		}
	}
}

// refLocked adds n to a chunk's reference count and returns the new count
// (0 for a partition the store no longer holds); n = 0 reads it. Caller
// holds mu.
func (s *Store) refLocked(id ChunkID, n int32) int32 {
	p := s.parts[id.Partition]
	if p == nil || id.Index < 0 {
		return 0
	}
	if grow := id.Index + 1 - len(p.refs); grow > 0 {
		p.refs = append(p.refs, make([]int32, grow)...)
	}
	p.refs[id.Index] += n
	return p.refs[id.Index]
}

// liveHashLocked returns the chunk an exact-dedup hash names while that
// chunk is referenced and readable: a revived mapping of an unreferenced
// chunk would point at data Compact is free to drop. Caller holds mu.
func (s *Store) liveHashLocked(h [32]byte) (ChunkID, bool) {
	id, ok := s.hashes[h]
	return id, ok && s.refLocked(id, 0) > 0 && !s.goneLocked(id)
}

// addDeltaLocked registers a delta chunk; it references its base.
func (s *Store) addDeltaLocked(id ChunkID, d deltaRef) {
	s.deltas[id] = d
	s.refLocked(d.Base, 1)
}

// dropDeltaLocked forgets a delta chunk's chain link and base reference.
func (s *Store) dropDeltaLocked(id ChunkID) {
	if d, ok := s.deltas[id]; ok {
		delete(s.deltas, id)
		s.refLocked(d.Base, -1)
	}
}

// remapLocked moves every chunk id of Compact's rewritten partitions to
// its new index (-1 = dropped) in the hashes, the delta registry, the lost
// marks and the directories, then recounts every reference and directory
// depth. Registry entries and lost marks of a partition Compact deleted
// go with it. An index past a torn tail's loaded chunks (remap's last entry
// counts the survivors) keeps its distance from the end, so it stays lost
// instead of landing on a live chunk. O(store), once per Compact. Caller
// holds flushMu and mu.
func (s *Store) remapLocked(remaps map[int64][]int) {
	move := func(id ChunkID) (ChunkID, bool) {
		if r, ok := remaps[id.Partition]; ok {
			if n := len(r) - 1; id.Index >= n {
				id.Index += r[n] - n
			} else {
				id.Index = r[id.Index]
			}
		}
		return id, id.Index >= 0
	}
	for h, id := range s.hashes {
		if nid, ok := move(id); ok {
			s.hashes[h] = nid
		} else {
			delete(s.hashes, h)
		}
	}
	// Old and new ids overlap, so both maps are rebuilt. A dropped chunk's
	// registry entry is gone already, and a base is referenced, so kept.
	deltas := make(map[ChunkID]deltaRef, len(s.deltas))
	for id, d := range s.deltas {
		if id, _ = move(id); s.parts[id.Partition] != nil {
			d.Base, _ = move(d.Base)
			deltas[id] = d
		}
	}
	lost := make(map[ChunkID]struct{}, len(s.lostChunks))
	for id := range s.lostChunks {
		if nid, ok := move(id); ok && s.parts[nid.Partition] != nil {
			lost[nid] = struct{}{}
		}
	}
	s.deltas, s.lostChunks = deltas, lost
	for _, p := range s.parts {
		p.refs = p.refs[:0]
	}
	for _, ims := range s.dirs {
		for _, d := range ims {
			d.depth = 0
			d.each(func(id *ChunkID) {
				*id, _ = move(*id)
				s.refLocked(*id, 1)
				d.depth = max(d.depth, s.deltas[*id].Depth)
			})
		}
	}
	for _, d := range s.deltas {
		s.refLocked(d.Base, 1)
	}
}
