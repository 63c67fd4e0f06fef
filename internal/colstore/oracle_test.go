package colstore

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestMaintainedStateOracle drives a seeded random sequence of puts (full,
// delta chains, replacements, exact-dedup hits onto delta chunks), deletes,
// flushes, compactions and reopens — a reopen may tighten DeltaMaxDepth,
// so the next Compact collapses chains whose base model may already be
// dropped — and after every step holds the two pieces of state the store
// maintains instead of recomputing (each intermediate's MaxDeltaDepth and
// each chunk's reference count) to a brute-force recount over Lookup and
// the delta registry. Every live column must also read back bit-exact
// after each Compact and reopen.
func TestMaintainedStateOracle(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runStateOracle(t, seed, 250) })
	}
}

func runStateOracle(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	cfg := Config{Mode: ModeArrival, DeltaMaxDepth: 3, PartitionTargetBytes: 6 << 10, MemBudgetBytes: 48 << 10, Codec: "store"}
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	interms, cols, blocks := []string{"a", "b"}, []string{"c0", "c1", "c2"}, 2
	live := make(map[ColumnKey][]float32)
	models := []string{}
	var versions int
	// putVersion logs a whole model: as a delta child of a live model, or
	// full; each chunk the store may still store full (the residual gate,
	// the depth bound, a parent in a later partition).
	putVersion := func() {
		name := fmt.Sprintf("v%d", versions)
		versions++
		var parent string
		if len(models) > 0 && rng.Intn(4) > 0 {
			parent = models[rng.Intn(len(models))]
		}
		for _, it := range interms {
			for _, c := range cols {
				for b := 0; b < blocks; b++ {
					k := key(name, it, c, b)
					pk := key(parent, it, c, b)
					pv, ok := live[pk]
					var r PutResult
					if ok {
						vals := perturbCol(pv, rng.Int63(), 0.05)
						r, err = s.PutColumnDelta(k, vals, nil, pk)
						live[k] = vals
					} else {
						vals := randCol(128, rng.Int63())
						r, err = s.PutColumn(k, vals, nil)
						live[k] = vals
					}
					if err != nil {
						t.Fatalf("put %s: %v (%+v)", k, err, r)
					}
				}
			}
		}
		models = append(models, name)
	}
	dropModel := func(name string) {
		for k := range live {
			if k.Model == name {
				delete(live, k)
			}
		}
		for i, m := range models {
			if m == name {
				models = append(models[:i], models[i+1:]...)
				break
			}
		}
	}
	anyLive := func() (ColumnKey, bool) {
		for k := range live {
			return k, true
		}
		return ColumnKey{}, false
	}

	for step := 0; step < steps; step++ {
		var op string
		switch r := rng.Intn(100); {
		case r < 30 || len(models) == 0:
			op = "version"
			putVersion()
		case r < 40:
			op = "replace"
			if k, ok := anyLive(); ok {
				vals := randCol(128, rng.Int63())
				if _, err := s.PutColumnReplace(k, vals, nil); err != nil {
					t.Fatalf("replace %s: %v", k, err)
				}
				live[k] = vals
			}
		case r < 50:
			// An exact duplicate of a delta chunk dedups onto it: the new
			// key takes the delta's reference and its intermediate the
			// delta's depth.
			op = "dedup-onto-delta"
			for k, vals := range live {
				if deltaDepth(s, k) == 0 || strings.HasPrefix(k.Model, "dup") {
					continue
				}
				dk := key("dup"+k.Model, k.Intermediate, k.Column, k.Block)
				if _, taken := live[dk]; taken {
					continue
				}
				if _, err := s.PutColumn(dk, vals, nil); err != nil {
					t.Fatalf("dedup put %s: %v", dk, err)
				}
				live[dk] = vals
				break
			}
		case r < 60:
			op = "delete-columns"
			if k, ok := anyLive(); ok {
				want := 0
				for lk := range live {
					if lk.Model == k.Model && lk.Intermediate == k.Intermediate {
						delete(live, lk)
						want++
					}
				}
				if n := s.DeleteColumns(k.Model, k.Intermediate); n != want {
					t.Fatalf("DeleteColumns(%s, %s) = %d, want %d", k.Model, k.Intermediate, n, want)
				}
			}
		case r < 70:
			op = "delete-model"
			if len(models) > 0 {
				name := models[rng.Intn(len(models))]
				want := 0
				for lk := range live {
					if lk.Model == name {
						want++
					}
				}
				dropModel(name)
				if n := s.DeleteModel(name); n != want {
					t.Fatalf("DeleteModel(%s) = %d, want %d", name, n, want)
				}
			}
		case r < 78:
			op = "flush"
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		case r < 90:
			op = "compact"
			if _, _, err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			mustReadExact(t, s, live)
		default:
			op = "reopen"
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			cfg.DeltaMaxDepth = 1 + rng.Intn(3)
			if s, err = Open(dir, cfg); err != nil {
				t.Fatal(err)
			}
			mustReadExact(t, s, live)
		}
		checkMaintainedState(t, s, live, fmt.Sprintf("step %d (%s)", step, op))
	}
	mustReadExact(t, s, live)
	rep, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) > 0 {
		t.Fatalf("verify: %v", rep.Problems)
	}
}

// checkMaintainedState recounts MaxDeltaDepth and every chunk's references
// by brute force and compares them with what the store maintains.
func checkMaintainedState(t *testing.T, s *Store, live map[ColumnKey][]float32, at string) {
	t.Helper()
	wantDepth := make(map[[2]string]int)
	ids := make(map[ColumnKey]ChunkID, len(live))
	for k := range live {
		id, ok := s.Lookup(k)
		if !ok {
			t.Fatalf("%s: live column %s not stored", at, k)
		}
		ids[k] = id
	}
	s.mu.Lock()
	want := make(map[ChunkID]int32)
	for k, id := range ids {
		want[id]++
		ik := [2]string{k.Model, k.Intermediate}
		wantDepth[ik] = max(wantDepth[ik], s.deltas[id].Depth)
	}
	for _, d := range s.deltas {
		want[d.Base]++
	}
	got := make(map[ChunkID]int32)
	for pid, p := range s.parts {
		for i, n := range p.refs {
			if n != 0 {
				got[ChunkID{Partition: pid, Index: i}] = n
			}
		}
	}
	for id := range want {
		if _, ok := s.parts[id.Partition]; !ok {
			delete(want, id)
		}
	}
	s.mu.Unlock()
	for id, n := range want {
		if got[id] != n {
			t.Fatalf("%s: chunk %v maintained refcount %d, recount %d", at, id, got[id], n)
		}
	}
	for id, n := range got {
		if want[id] != n {
			t.Fatalf("%s: chunk %v maintained refcount %d, recount %d", at, id, n, want[id])
		}
	}
	for ik, d := range wantDepth {
		if got := s.MaxDeltaDepth(ik[0], ik[1]); got != d {
			t.Fatalf("%s: MaxDeltaDepth(%s, %s) = %d, recount %d", at, ik[0], ik[1], got, d)
		}
	}
}

// TestVerifyReportsRefcountDrift: Verify recounts every reference and
// reports any chunk whose maintained count drifted from it.
func TestVerifyReportsRefcountDrift(t *testing.T) {
	s := openTest(t, Config{})
	k := key("m", "i", "c", 0)
	res, err := s.PutColumn(k, randCol(64, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := s.Verify(); err != nil || len(rep.Problems) > 0 {
		t.Fatalf("healthy store: %v %v", rep, err)
	}
	s.mu.Lock()
	s.refLocked(res.ID, 1)
	s.mu.Unlock()
	rep, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("chunk %v refcount 2, recount 1", res.ID)
	if len(rep.Problems) != 1 || rep.Problems[0] != want {
		t.Fatalf("problems %q, want [%q]", rep.Problems, want)
	}
}
