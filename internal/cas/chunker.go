// Package cas implements a content-addressed chunk store with
// content-defined chunking and delta-encoded objects. It deduplicates
// large blobs — serialized model weights, for instance — across model
// versions: unchanged regions hash to chunks already in the table, and
// a fine-tuned checkpoint can be stored as an XOR residual against its
// parent, whose mostly-zero chunks collapse onto a handful of shared
// entries.
//
// mistique.System does not use it and neither writes nor opens a
// data/cas/ directory; the benchmark harness (bench/) drives it directly.
//
// Durability follows the colstore manifest discipline: immutable
// segment files and a CRC-enveloped index are published with
// temp-file → write → fsync → rename → fsync-dir, so every crash point
// leaves either the old state or the new state, never a torn one.
package cas

import "fmt"

// Default chunk-size knobs. Weight tensors for the models this repo
// trains are hundreds of KiB to a few MiB, so chunks in the 2–64 KiB
// range give enough boundary resolution for partial-update dedup
// without drowning the index in entries.
const (
	DefaultMinChunk = 2 << 10
	DefaultAvgChunk = 8 << 10
	DefaultMaxChunk = 64 << 10
)

// ChunkerConfig holds the content-defined-chunking knobs. Zero values
// take the package defaults.
type ChunkerConfig struct {
	// Min is the smallest chunk the cutter will emit (except a final
	// short tail). Boundary checks are suppressed below it.
	Min int
	// Avg is the target average chunk size; it is rounded up to a power
	// of two to derive the boundary mask.
	Avg int
	// Max force-cuts a chunk regardless of content.
	Max int
}

func (c ChunkerConfig) withDefaults() ChunkerConfig {
	if c.Min == 0 {
		c.Min = DefaultMinChunk
	}
	if c.Avg == 0 {
		c.Avg = DefaultAvgChunk
	}
	if c.Max == 0 {
		c.Max = DefaultMaxChunk
	}
	return c
}

func (c ChunkerConfig) validate() error {
	if c.Min < 64 {
		return fmt.Errorf("cas: min chunk %d below 64 bytes", c.Min)
	}
	if c.Avg < c.Min || c.Max < c.Avg {
		return fmt.Errorf("cas: chunk sizes must satisfy min <= avg <= max, got %d/%d/%d", c.Min, c.Avg, c.Max)
	}
	return nil
}

// gearTable is the byte-indexed noise table for the Gear rolling hash.
// It is generated from a fixed seed so boundaries are deterministic
// across processes and releases — a requirement for cross-version
// dedup, since two runs chunking the same bytes must agree.
var gearTable = buildGearTable(0x4d49535451554521) // "MISTQUE!"

func buildGearTable(seed uint64) [256]uint64 {
	var t [256]uint64
	s := seed
	for i := range t {
		// splitmix64: cheap, well-distributed, and fully determined by
		// the seed.
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		t[i] = z ^ (z >> 31)
	}
	return t
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Boundaries returns the end offset of every chunk in data under the
// Gear content-defined chunker: a cut happens at the first position at
// least Min bytes into the chunk where the rolling hash ANDed with the
// average-size mask is zero, or at Max bytes regardless. The final
// boundary is always len(data). Boundaries(nil) is empty.
//
// The hash is reset at each cut, so a chunk's boundary depends only on
// the bytes of that chunk — inserting data in one region of a blob
// shifts boundaries locally and leaves later chunks (and their hashes)
// intact once the cutter resynchronises.
func Boundaries(data []byte, cfg ChunkerConfig) []int {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		// Invalid explicit knobs fall back to defaults rather than
		// panicking: chunking must never fail on hostile config.
		cfg = ChunkerConfig{}.withDefaults()
	}
	mask := uint64(nextPow2(cfg.Avg) - 1)
	var cuts []int
	start := 0
	var h uint64
	for i := 0; i < len(data); i++ {
		h = (h << 1) + gearTable[data[i]]
		n := i + 1 - start
		if n < cfg.Min {
			continue
		}
		if h&mask == 0 || n >= cfg.Max {
			cuts = append(cuts, i+1)
			start = i + 1
			h = 0
		}
	}
	if start < len(data) {
		cuts = append(cuts, len(data))
	}
	return cuts
}

// Split cuts data at Boundaries and returns the chunks as subslices of
// data (no copying). Concatenating the returned chunks yields data.
func Split(data []byte, cfg ChunkerConfig) [][]byte {
	cuts := Boundaries(data, cfg)
	chunks := make([][]byte, 0, len(cuts))
	start := 0
	for _, end := range cuts {
		chunks = append(chunks, data[start:end:end])
		start = end
	}
	return chunks
}
