package cas

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"mistique/internal/durable"
	"mistique/internal/faultfs"
)

// Crash-matrix suite for the chunk table and delta publish: every write
// path (segment publish, index publish, object-manifest publish, GC
// rewrite) is killed at every syscall, then the directory is reopened
// with a clean FS. Invariants: state is exact-or-recoverable — every
// object durable before the crash reconstructs bit-exactly, a
// half-published generation either fully exists or is absent, a re-put
// of the in-flight object heals the store, and GC after recovery never
// reclaims a chunk a surviving object references.

type casPoint struct {
	name  string
	fault faultfs.Fault
}

func casCrashPoints() []casPoint {
	return []casPoint{
		{"segment-create", faultfs.Fault{Op: faultfs.OpCreate, PathContains: "seg_", Crash: true}},
		{"segment-torn-write", faultfs.Fault{Op: faultfs.OpWrite, PathContains: "seg_", AfterBytes: 100, Crash: true}},
		{"segment-sync", faultfs.Fault{Op: faultfs.OpSync, PathContains: "seg_", Crash: true}},
		{"segment-close", faultfs.Fault{Op: faultfs.OpClose, PathContains: "seg_", Crash: true}},
		// Rename faults match the destination path, not the temp name.
		{"segment-rename", faultfs.Fault{Op: faultfs.OpRename, PathContains: "seg_", Crash: true}},
		{"segment-syncdir", faultfs.Fault{Op: faultfs.OpSyncDir, Countdown: 0, Crash: true}},
		{"index-create", faultfs.Fault{Op: faultfs.OpCreate, PathContains: indexName + ".tmp", Crash: true}},
		{"index-torn-write", faultfs.Fault{Op: faultfs.OpWrite, PathContains: indexName + ".tmp", AfterBytes: 40, Crash: true}},
		{"index-sync", faultfs.Fault{Op: faultfs.OpSync, PathContains: indexName + ".tmp", Crash: true}},
		{"index-close", faultfs.Fault{Op: faultfs.OpClose, PathContains: indexName + ".tmp", Crash: true}},
		{"index-rename", faultfs.Fault{Op: faultfs.OpRename, PathContains: indexName, Crash: true}},
		{"index-syncdir", faultfs.Fault{Op: faultfs.OpSyncDir, Countdown: 1, Crash: true}},
		{"objects-create", faultfs.Fault{Op: faultfs.OpCreate, PathContains: objName + ".tmp", Crash: true}},
		{"objects-torn-write", faultfs.Fault{Op: faultfs.OpWrite, PathContains: objName + ".tmp", AfterBytes: 20, Crash: true}},
		{"objects-sync", faultfs.Fault{Op: faultfs.OpSync, PathContains: objName + ".tmp", Crash: true}},
		{"objects-close", faultfs.Fault{Op: faultfs.OpClose, PathContains: objName + ".tmp", Crash: true}},
		{"objects-rename", faultfs.Fault{Op: faultfs.OpRename, PathContains: objName, Crash: true}},
		{"objects-syncdir", faultfs.Fault{Op: faultfs.OpSyncDir, Countdown: 2, Crash: true}},
	}
}

// TestCrashMatrixCASAppend kills a chunk-table append (the flush that
// publishes new chunks of a delta generation) at every syscall.
func TestCrashMatrixCASAppend(t *testing.T) {
	baseData := randBytes(t, 150_000, 31)
	nextData := perturb(baseData, 32, 0.02)
	for _, pt := range casCrashPoints() {
		t.Run(pt.name, func(t *testing.T) {
			dir := t.TempDir()
			// Establish a durable baseline generation.
			s := openStore(t, dir, Config{})
			if _, err := s.Put("v0", baseData); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}

			// Publish the delta generation under an armed crash.
			inj := faultfs.NewInjector(faultfs.OS())
			s2, err := OpenStore(dir, Config{FS: inj})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s2.PutDelta("v1", "v0", nextData); err != nil {
				t.Fatal(err)
			}
			inj.Arm(pt.fault)
			if err := s2.Flush(); err == nil {
				t.Fatalf("crash point %s did not fire", pt.name)
			}
			if !inj.Crashed() {
				t.Fatalf("fault %s fired without crashing", pt.name)
			}

			// Reboot. The baseline must be intact; v1 is either fully
			// there or fully absent — never wrong bytes.
			s3 := openStore(t, dir, Config{})
			got, err := s3.Get("v0")
			if err != nil || !bytes.Equal(got, baseData) {
				t.Fatalf("durable v0 damaged by crash: %v", err)
			}
			if got, err := s3.Get("v1"); err == nil {
				if !bytes.Equal(got, nextData) {
					t.Fatal("v1 survived the crash with wrong bytes")
				}
			} else if !errors.Is(err, ErrNotFound) && !errors.Is(err, durable.ErrCorrupt) {
				t.Fatalf("v1 failed with untyped error: %v", err)
			}

			// Heal: re-log the lost generation and GC. No referenced
			// chunk may be reclaimed.
			if _, err := s3.PutDelta("v1", "v0", nextData); err != nil {
				t.Fatalf("heal re-put: %v", err)
			}
			if err := s3.Compact(0); err != nil {
				t.Fatalf("compact after heal: %v", err)
			}
			for _, tc := range []struct {
				name string
				want []byte
			}{{"v0", baseData}, {"v1", nextData}} {
				got, err := s3.Get(tc.name)
				if err != nil || !bytes.Equal(got, tc.want) {
					t.Fatalf("%s after heal+GC: %v", tc.name, err)
				}
			}
		})
	}
}

// TestCrashMatrixCASCompact kills the Compact chain-collapse +
// GC-rewrite path at every syscall: the pre-compact state is durable,
// so every object must reconstruct after reboot no matter where the
// compaction died.
func TestCrashMatrixCASCompact(t *testing.T) {
	v0 := randBytes(t, 120_000, 33)
	versions := map[string][]byte{"v0": v0}
	prev := v0
	for i := 1; i <= 3; i++ {
		prev = perturb(prev, int64(33+i), 0.02)
		versions[fmt.Sprintf("v%d", i)] = prev
	}
	for _, pt := range casCrashPoints() {
		t.Run(pt.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openStore(t, dir, Config{MaxDepth: 3})
			if _, err := s.Put("v0", versions["v0"]); err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 3; i++ {
				if _, err := s.PutDelta(fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i-1), versions[fmt.Sprintf("v%d", i)]); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			// Collapse chains down to depth 1 under an armed crash; the
			// collapse releases the old residual chunks, so the GC half
			// of Compact has segments to rewrite too.
			inj := faultfs.NewInjector(faultfs.OS())
			s2, err := OpenStore(dir, Config{FS: inj, MaxDepth: 3})
			if err != nil {
				t.Fatal(err)
			}
			inj.Arm(pt.fault)
			err = s2.Compact(1)
			if err == nil {
				t.Skipf("compact finished before crash point %s", pt.name)
			}
			if !inj.Crashed() {
				t.Fatalf("fault %s fired without crashing", pt.name)
			}

			s3 := openStore(t, dir, Config{MaxDepth: 3})
			for name, want := range versions {
				got, err := s3.Get(name)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s lost by crashed compact: %v", name, err)
				}
			}
			// A clean compact afterwards converges.
			if err := s3.Compact(1); err != nil {
				t.Fatalf("compact after reboot: %v", err)
			}
			for name, want := range versions {
				got, err := s3.Get(name)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s lost by post-reboot compact: %v", name, err)
				}
			}
		})
	}
}

// TestCASRefcountsSurviveReopen re-derives refcounts from the object
// manifest and asserts GC cannot leak a chunk any object references.
func TestCASRefcountsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Config{})
	shared := randBytes(t, 90_000, 40)
	if _, err := s.Put("a", shared); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("b", shared); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Config{})
	if err := s2.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := s2.Compact(0); err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get("b")
	if err != nil || !bytes.Equal(got, shared) {
		t.Fatalf("GC leaked chunks still referenced by b: %v", err)
	}
	if st := s2.Table().Stats(); st.Chunks == 0 {
		t.Fatal("all chunks reclaimed despite live object")
	}
}
