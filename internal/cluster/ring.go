package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
)

// BlockRef names one row-block of one intermediate — the unit of
// placement. Content lives at the block grain so a degraded shard's data
// can be re-fetched from any replica of that block rather than declared
// lost wholesale.
type BlockRef struct {
	Model        string
	Intermediate string
	Block        int
}

func (b BlockRef) String() string {
	return fmt.Sprintf("%s.%s[%d]", b.Model, b.Intermediate, b.Block)
}

// hash is the block's position on the ring: FNV-64a over the
// NUL-separated key. Placement must be a pure function of the key and
// the shard set — every router instance, restarted or not, must agree.
func (b BlockRef) hash() uint64 {
	h := fnv.New64a()
	io.WriteString(h, b.Model)
	h.Write([]byte{0})
	io.WriteString(h, b.Intermediate)
	h.Write([]byte{0})
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(b.Block))
	h.Write(buf[:])
	return h.Sum64()
}

type ringPoint struct {
	hash  uint64
	shard int // index into Ring.shards
}

// Ring is an immutable consistent-hash ring. Each shard contributes
// vnodes virtual points so load spreads evenly; a block's replica chain
// is the first `replicas` distinct shards clockwise from the block's
// hash. The ring never reshuffles at query time — membership only
// reorders which replica is tried first, so a flapping shard cannot move
// data ownership out from under in-flight queries.
type Ring struct {
	shards   []ShardID
	points   []ringPoint
	replicas int
}

// NewRing builds a ring over the given shards. vnodes <= 0 defaults to
// 64; replicas is clamped to [1, len(shards)].
func NewRing(shards []ShardID, vnodes, replicas int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	if replicas <= 0 {
		replicas = 1
	}
	if replicas > len(shards) {
		replicas = len(shards)
	}
	r := &Ring{
		shards:   append([]ShardID(nil), shards...),
		replicas: replicas,
		points:   make([]ringPoint, 0, len(shards)*vnodes),
	}
	for si, s := range r.shards {
		for v := 0; v < vnodes; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s#%d", s, v)
			r.points = append(r.points, ringPoint{hash: h.Sum64(), shard: si})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash ties (vanishingly rare) break by shard index so the walk
		// order is still deterministic across processes.
		return r.points[a].shard < r.points[b].shard
	})
	return r
}

// Owners returns the block's replica chain, primary first: the first
// `replicas` distinct shards clockwise from the block's point.
func (r *Ring) Owners(b BlockRef) []ShardID {
	if len(r.points) == 0 {
		return nil
	}
	key := b.hash()
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	out := make([]ShardID, 0, r.replicas)
	seen := make(map[int]struct{}, r.replicas)
	for n := 0; n < len(r.points) && len(out) < r.replicas; n++ {
		p := r.points[(i+n)%len(r.points)]
		if _, dup := seen[p.shard]; dup {
			continue
		}
		seen[p.shard] = struct{}{}
		out = append(out, r.shards[p.shard])
	}
	return out
}
