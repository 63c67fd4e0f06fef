package mistique

import (
	"fmt"
)

// LineageEntry describes one model version in a training-run lineage
// chain, newest first: the version itself, the parent it was logged as a
// delta against, and how the store is holding its intermediates.
type LineageEntry struct {
	// Model is this version's name; Parent is the version it was logged
	// against ("" for the root of the chain).
	Model  string
	Parent string
	Kind   string
	// Intermediates counts catalog entries; StoredBytes sums their
	// encoded (post-dedup, pre-compression) footprint.
	Intermediates int
	StoredBytes   int64
	// MaxDeltaDepth is the deepest delta chain any of this version's
	// columns sits on (0 = every chunk is full or exact-deduped). Cold
	// reads page in depth+1 generations; the cost model charges exactly
	// that amplification (cost.ChainReadSeconds).
	MaxDeltaDepth int
}

// Lineage walks the version chain of a model, newest first, following
// catalog Parent links (LogDNN's Parent option) until a root version or a
// parent that is no longer in the catalog (dropped versions end the walk;
// the last entry still names them as Parent). A cycle — possible only by
// hand-editing the catalog — terminates the walk instead of spinning.
func (s *System) Lineage(model string) ([]LineageEntry, error) {
	db := s.meta
	if db.Model(model) == nil {
		return nil, fmt.Errorf("mistique: %w %q", ErrUnknownModel, model)
	}
	var out []LineageEntry
	seen := make(map[string]bool)
	for name := model; name != "" && !seen[name]; {
		seen[name] = true
		m := db.Model(name)
		if m == nil {
			break
		}
		e := LineageEntry{Model: name, Parent: m.Parent, Kind: string(m.Kind)}
		for _, it := range db.IntermSnapshots(name) {
			e.Intermediates++
			e.StoredBytes += it.StoredBytes
			if d := s.store.MaxDeltaDepth(name, it.Name); d > e.MaxDeltaDepth {
				e.MaxDeltaDepth = d
			}
		}
		out = append(out, e)
		name = m.Parent
	}
	return out, nil
}
