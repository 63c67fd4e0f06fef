package colstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"mistique/internal/durable"
	"mistique/internal/parallel"
)

// Startup recovery (run by Open, before the store serves any request):
//
//  1. Sweep orphan *.tmp* files left by a crashed flush — the atomic
//     write protocol never publishes them, so they are pure garbage.
//  2. Reconcile the manifest against the directory: partition files the
//     manifest does not reference (stale compaction generations, flushes
//     that never reached a manifest write, or the leftovers of a corrupt
//     manifest) are quarantined into corrupt/.
//  3. Verify the checksum of every referenced partition file. Missing
//     files mark the partition lost;
//     corrupt files are quarantined and marked lost; a file holding fewer
//     chunks than the manifest promised marks just the tail chunks lost.
//
// Nothing aborts: a lost chunk answers ErrUnavailable and the engine
// falls back to re-running the model — "the model is the backup".

// corruptDirName is the quarantine subdirectory for bad files.
const corruptDirName = "corrupt"

// RecoveryReport describes what the last Open had to repair.
type RecoveryReport struct {
	// ManifestQuarantined is true when the manifest itself was corrupt and
	// the store restarted from an empty logical state.
	ManifestQuarantined bool
	// OrphanTempsRemoved lists swept *.tmp* files (crashed writes).
	OrphanTempsRemoved []string
	// ExtraFilesQuarantined lists partition files the manifest did not
	// reference, moved to corrupt/.
	ExtraFilesQuarantined []string
	// MissingPartitions lists manifest partitions whose file is gone.
	MissingPartitions []int64
	// CorruptPartitions lists partitions whose file failed verification
	// and was quarantined.
	CorruptPartitions []int64
	// UnsupportedPartitions lists partitions whose file uses a format or
	// codec from a newer binary. They are marked lost for this session but
	// their files are left in place — NOT moved to corrupt/ — so a binary
	// that understands the format can still read them.
	UnsupportedPartitions []int64
	// LostChunks lists every referenced chunk that is no longer readable
	// (its columns recover via the engine's rerun fallback).
	LostChunks []ChunkID
}

// LastRecovery returns the report of the Open-time recovery sweep.
func (s *Store) LastRecovery() *RecoveryReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// moveToCorrupt quarantines one file (named relative to the store dir)
// into the corrupt/ subdirectory. Best effort: quarantine runs on paths
// that may already be half-gone, and a failed move leaves the file where
// a later sweep retries.
func (s *Store) moveToCorrupt(name string) {
	src := filepath.Join(s.dir, name)
	if _, err := os.Stat(src); err != nil {
		return
	}
	dst := filepath.Join(s.dir, corruptDirName, name)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return
	}
	os.Rename(src, dst)
}

// quarantineLocked marks a partition lost after a failed read: its file
// moves to corrupt/, and no dedup hit maps a fresh column into it again
// (liveHashLocked). Caller holds s.mu.
//
// A cause of durable.ErrUnsupported is the exception: the file is intact,
// just written by a newer binary, so it stays where it is (deleting or
// quarantining it would destroy data a future binary could serve) and is
// counted separately from corruption.
func (s *Store) quarantineLocked(p *partition, cause error) {
	if p.lost {
		return
	}
	if _, still := s.parts[p.id]; !still {
		return // deleted concurrently; nothing to quarantine
	}
	p.lost = true
	if p.chunks != nil {
		s.memBytes -= p.bytes
		p.chunks = nil
	}
	p.dirty = false
	if errors.Is(cause, durable.ErrUnsupported) {
		s.stats.UnsupportedPartitions++
	} else {
		s.stats.CorruptPartitions++
		s.moveToCorrupt(partFileName(p.id, p.gen))
	}
	s.om.quarantines.Inc()
}

// recoverOnOpen runs the three-step sweep above. It executes before the
// store is shared, so it reads fields without holding mu (the parallel
// verification workers touch only their own slot).
func (s *Store) recoverOnOpen(manifestCorrupt bool) error {
	rep := &RecoveryReport{
		ManifestQuarantined: manifestCorrupt,
		OrphanTempsRemoved:  durable.SweepTemps(s.fs, s.dir),
	}

	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("colstore: recovery scan %s: %w", s.dir, err)
	}
	known := make(map[string]int64, len(s.parts))
	for pid, p := range s.parts {
		known[partFileName(pid, p.gen)] = pid
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || name == manifestName {
			continue
		}
		if _, ok := known[name]; !ok && strings.HasPrefix(name, "partition_") {
			s.moveToCorrupt(name)
			rep.ExtraFilesQuarantined = append(rep.ExtraFilesQuarantined, name)
		}
	}

	// Verify every referenced partition file. Partitions already marked
	// lost by the manifest stay lost; everything else gets its checksums
	// checked so silent corruption is caught before any query trusts it.
	pids := make([]int64, 0, len(s.parts))
	for pid, p := range s.parts {
		if !p.lost {
			pids = append(pids, pid)
		}
	}
	slices.Sort(pids)
	type verdict struct {
		missing     bool
		corrupt     bool
		unsupported bool
		chunks      int
	}
	verdicts := make([]verdict, len(pids))
	parallel.ForEach(len(pids), func(i int) error {
		p := s.parts[pids[i]]
		path := s.partPathGen(p.id, p.gen)
		if _, err := os.Stat(path); os.IsNotExist(err) {
			verdicts[i].missing = true
			return nil
		}
		chunks, _, _, err := readPartitionFile(path, p.raw)
		switch {
		case errors.Is(err, durable.ErrUnsupported):
			verdicts[i].unsupported = true
		case err != nil:
			verdicts[i].corrupt = true
		default:
			verdicts[i].chunks = len(chunks)
		}
		return nil
	})
	for i, pid := range pids {
		p := s.parts[pid]
		v := verdicts[i]
		switch {
		case v.missing:
			p.lost = true
			p.onDisk = false
			rep.MissingPartitions = append(rep.MissingPartitions, pid)
			s.stats.CorruptPartitions++
			s.om.quarantines.Inc()
		case v.corrupt:
			p.lost = true
			s.stats.CorruptPartitions++
			s.om.quarantines.Inc()
			s.moveToCorrupt(partFileName(pid, p.gen))
			rep.CorruptPartitions = append(rep.CorruptPartitions, pid)
		case v.unsupported:
			// Forward-compat: the file is from a newer binary. Mark the
			// partition lost (reads answer ErrUnavailable, the engine
			// reruns) but leave the file untouched for a binary that can
			// read it.
			p.lost = true
			s.stats.UnsupportedPartitions++
			rep.UnsupportedPartitions = append(rep.UnsupportedPartitions, pid)
		default:
			p.diskChunks = v.chunks
		}
	}

	// Cross-check the column mappings: every one into a lost partition, an
	// unknown partition, or past the end of a short (torn-tail) file is a
	// lost chunk. Queries for them answer ErrUnavailable and the engine
	// recovers by re-run, then re-materializes.
	s.eachColumnLocked(func(_ ColumnKey, id ChunkID) {
		if s.goneLocked(id) {
			s.lostChunks[id] = struct{}{}
		}
	})
	// Delta chunks depend on their base chunk: a lost base makes every
	// dependent generation unreconstructable too (lost-but-healable — the
	// dependents' own files are intact, re-logging the lost version heals
	// the chain). Propagate to a fixpoint so whole chains go down together,
	// however deep.
	for changed := true; changed; {
		changed = false
		for id, d := range s.deltas {
			if _, bad := s.lostChunks[id]; !bad && s.goneLocked(d.Base) {
				s.lostChunks[id] = struct{}{}
				changed = true
			}
		}
	}
	for id := range s.lostChunks {
		rep.LostChunks = append(rep.LostChunks, id)
	}
	slices.SortFunc(rep.LostChunks, cmpChunkID)

	s.recovery = rep
	return nil
}
