package mistique

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mistique/internal/colstore"
	"mistique/internal/cost"
	"mistique/internal/data"
	"mistique/internal/durable"
	"mistique/internal/faultfs"
	"mistique/internal/nn"
)

// Engine-level recovery tests: the store loses data (corrupted or deleted
// partition files), and queries must transparently fall back to re-running
// the model — "the model is the backup" — then re-materialize so later
// queries read again.

// corruptDataFiles bit-flips every partition file under the system's store
// directory, returning how many it damaged.
func corruptDataFiles(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "data"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), "partition_") {
			continue
		}
		path := filepath.Join(dir, "data", e.Name())
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		blob[len(blob)/2] ^= 0xFF
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		n++
	}
	return n
}

// TestQueryRecoversFromCorruptPartitions is the acceptance scenario of the
// crash matrix: every partition file is corrupted on disk, and a query
// whose cost model chose READ must still return the correct values via the
// rerun fallback, count a RecoveredRead, and re-materialize so the next
// query reads from healthy chunks again.
func TestQueryRecoversFromCorruptPartitions(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	logDemo(t, s)
	// Ground truth from the healthy store (TRAD "model.pred" reads by cost).
	want, err := s.GetIntermediate("demo", "model", []string{"pred"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want.Strategy != cost.Read {
		t.Fatalf("setup: expected READ, got %v", want.Strategy)
	}

	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Store().DropCache(); err != nil {
		t.Fatal(err)
	}
	if n := corruptDataFiles(t, dir); n == 0 {
		t.Fatal("no partition files to corrupt")
	}

	res, err := s.GetIntermediate("demo", "model", []string{"pred"}, 0)
	if err != nil {
		t.Fatalf("query against corrupt store: %v", err)
	}
	if !res.Recovered || res.Strategy != cost.Rerun {
		t.Fatalf("recovered=%v strategy=%v, want recovered rerun", res.Recovered, res.Strategy)
	}
	for i := range want.Data.Data {
		if res.Data.Data[i] != want.Data.Data[i] {
			t.Fatalf("recovered values differ at %d", i)
		}
	}
	st := s.Store().Stats()
	if st.RecoveredReads == 0 {
		t.Fatalf("RecoveredReads = 0 after a recovered query (stats %+v)", st)
	}
	if st.CorruptPartitions == 0 {
		t.Fatalf("CorruptPartitions = 0 after reading corrupt files (stats %+v)", st)
	}

	// The fallback re-materialized the intermediate: the next query reads —
	// from fresh, healthy chunks — and agrees.
	again, err := s.GetIntermediate("demo", "model", []string{"pred"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.Strategy != cost.Read || again.Recovered {
		t.Fatalf("post-heal query: strategy=%v recovered=%v, want clean READ", again.Strategy, again.Recovered)
	}
	for i := range want.Data.Data {
		if again.Data.Data[i] != want.Data.Data[i] {
			t.Fatalf("post-heal read differs at %d", i)
		}
	}
}

// TestFilterRowsHealsAfterLoss: predicate scans have no rerun equivalent
// of their own, so a scan over lost chunks re-materializes the
// intermediate and retries once. The neuron index is disabled so the
// range-scan twin's heal machinery is what answers — with the index on, a FilterRows over lost
// chunks can be served from the cached index instead
// (TestFilterRowsIndexHealsAfterLoss covers the index-side heal).
func TestFilterRowsHealsAfterLoss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.nidx = nil
	logDemo(t, s)
	want, err := s.FilterRows("demo", "joined", "yearbuilt", colstore.Ge, 2015)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Store().DropCache(); err != nil {
		t.Fatal(err)
	}
	corruptDataFiles(t, dir)

	got, err := s.FilterRows("demo", "joined", "yearbuilt", colstore.Ge, 2015)
	if err != nil {
		t.Fatalf("scan against corrupt store: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("healed scan found %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("healed scan row %d = %d, want %d", i, got[i], want[i])
		}
	}
	if s.Store().Stats().RecoveredReads == 0 {
		t.Fatal("heal did not count a recovered read")
	}
}

// TestGetRowsHealsAfterLoss: same contract for primary-index range reads.
func TestGetRowsHealsAfterLoss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	logDemo(t, s)
	want, err := s.GetRows("demo", "joined", []string{"yearbuilt", "logerror"}, 100, 160)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Store().DropCache(); err != nil {
		t.Fatal(err)
	}
	corruptDataFiles(t, dir)

	got, err := s.GetRows("demo", "joined", []string{"yearbuilt", "logerror"}, 100, 160)
	if err != nil {
		t.Fatalf("range read against corrupt store: %v", err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("healed range read differs at %d", i)
		}
	}
}

// TestRecoveryWithoutResidentModelFails cleanly: a reopened store (no
// pipelines re-logged) cannot rerun, so a query over lost chunks must
// return an error — not wrong data, not a panic.
func TestRecoveryWithoutResidentModelFails(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	logDemo(t, s)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	corruptDataFiles(t, dir)

	// Fresh process: catalog restored, chunks corrupt, no executor.
	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep := s2.RecoveryReport(); rep == nil || rep.Clean() {
		t.Fatalf("recovery report %+v, want corruption recorded", s2.RecoveryReport())
	}
	if _, err := s2.GetIntermediate("demo", "model", []string{"pred"}, 0); err == nil {
		t.Fatal("query over lost chunks with no rerun path succeeded")
	}
}

// TestCorruptMetadataFailSoft: a scribbled-over catalog must not brick the
// system. Open quarantines it (metadata.json.corrupt) and starts fresh;
// re-logging restores service.
func TestCorruptMetadataFailSoft(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	logDemo(t, s)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	metaPath := filepath.Join(dir, "metadata.json")
	if err := os.WriteFile(metaPath, []byte("}{ not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("open with corrupt catalog: %v", err)
	}
	if s2.Metadata().Model("demo") != nil {
		t.Fatal("corrupt catalog produced a model")
	}
	if _, err := os.Stat(metaPath + ".corrupt"); err != nil {
		t.Fatalf("corrupt catalog not quarantined: %v", err)
	}
	// Service restores by re-logging; chunks in the store dedup the re-puts.
	logDemo(t, s2)
	if _, err := s2.GetIntermediate("demo", "joined", []string{"logerror"}, 0); err != nil {
		t.Fatalf("query after catalog rebuild: %v", err)
	}
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Config{}); err != nil {
		t.Fatalf("reopen after rebuild: %v", err)
	}
}

// TestRecoveryReportCleanOnHealthyReopen: the accessor reports a clean
// sweep for an undamaged directory.
func TestRecoveryReportCleanOnHealthyReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	logDemo(t, s)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep := s2.RecoveryReport(); rep == nil || !rep.Clean() {
		t.Fatalf("healthy reopen not clean: %+v", rep)
	}
}

// tempFiles lists the *.tmp* names directly under dir.
func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var temps []string
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			temps = append(temps, e.Name())
		}
	}
	return temps
}

// TestReopenSweepsOrphanTemps: a process killed between CreateTemp and
// Rename strands a temp file beside the artifact it was publishing. Every
// artifact directory — not just the partition and CAS ones — must be swept
// on the next Open, and the crash must cost nothing that was acknowledged.
func TestReopenSweepsOrphanTemps(t *testing.T) {
	cases := []struct {
		name   string
		target string // substring of the publish's rename target
		subdir string // where its temp file is stranded
	}{
		{"sample", ".mqsm", "data/sample"},
		{"wal-rewrite", ".wal", "data/wal"},
		{"catalog", "metadata.json", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			inj := faultfs.NewInjector(nil)
			s, err := Open(dir, Config{RowBlockRows: 64, Store: colstore.Config{FS: inj}})
			if err != nil {
				t.Fatal(err)
			}
			cols := []string{"v", "w"}
			ingestStream(t, s, "live", "acts", cols, 0, 200, 50)
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			ingestStream(t, s, "live", "acts", cols, 200, 30, 30)

			// Die at the rename of the next publish of this artifact kind:
			// the flush publishes the catalog, then each stream's sample and
			// WAL checkpoint.
			inj.Arm(faultfs.Fault{Op: faultfs.OpRename, PathContains: tc.target, Crash: true})
			s.Flush()
			if !inj.Crashed() {
				t.Fatal("fault never fired")
			}
			artifactDir := filepath.Join(dir, filepath.FromSlash(tc.subdir))
			if len(tempFiles(t, artifactDir)) == 0 {
				t.Fatalf("no orphan temp in %s: the crash point moved", artifactDir)
			}

			s2, err := Open(dir, Config{RowBlockRows: 64})
			if err != nil {
				t.Fatal(err)
			}
			if left := tempFiles(t, artifactDir); len(left) != 0 {
				t.Fatalf("reopen left orphan temps in %s: %v", artifactDir, left)
			}
			if err := s2.Flush(); err != nil {
				t.Fatal(err)
			}
			checkStreamRead(t, s2, "live", "acts", cols, 230)
		})
	}
}

// TestOpenFailsWhenQuarantineFails: a corrupt catalog or stream WAL that
// cannot be moved aside would be re-read on every open (and the catalog
// overwritten by the next flush), so Open must report it instead of
// carrying on as if the quarantine had worked.
func TestOpenFailsWhenQuarantineFails(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{RowBlockRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	ingestStream(t, s, "live", "acts", []string{"v"}, 0, 100, 25)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	metaPath := filepath.Join(dir, "metadata.json")
	wals, err := filepath.Glob(filepath.Join(dir, "data", "wal", "*.wal"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("wal files %v, %v", wals, err)
	}

	for _, path := range []string{metaPath, wals[0]} {
		good, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte("}{ neither json nor a wal"), 0o644); err != nil {
			t.Fatal(err)
		}
		inj := faultfs.NewInjector(nil)
		inj.Arm(faultfs.Fault{Op: faultfs.OpRename, PathContains: filepath.Base(path) + ".corrupt"})
		if _, err := Open(dir, Config{RowBlockRows: 64, Store: colstore.Config{FS: inj}}); !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("open with unquarantinable %s: err = %v", filepath.Base(path), err)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("%s vanished on a failed quarantine: %v", path, err)
		}
		// On a healthy filesystem the same file is set aside and Open succeeds.
		if _, err := Open(dir, Config{RowBlockRows: 64}); err != nil {
			t.Fatalf("open with quarantinable %s: %v", filepath.Base(path), err)
		}
		if _, err := os.Stat(path + ".corrupt"); err != nil {
			t.Fatalf("%s not quarantined: %v", filepath.Base(path), err)
		}
		if err := os.WriteFile(path, good, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenRefusesNewerArtifactsAndLeavesThem: the three artifacts Open
// cannot do without — catalog, store manifest, stream WAL — stamped with a
// version this binary does not know fail the open with
// durable.ErrUnsupported and stay byte-for-byte in place (an older binary
// pointed at a newer directory must not quarantine it into an empty store).
func TestOpenRefusesNewerArtifactsAndLeavesThem(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{RowBlockRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	ingestStream(t, s, "live", "acts", []string{"v"}, 0, 100, 25)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	wals, err := filepath.Glob(filepath.Join(dir, "data", "wal", "*.wal"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("wal files %v, %v", wals, err)
	}
	regzip := func(edit func([]byte) []byte) func([]byte) []byte {
		return func(raw []byte) []byte {
			zr, err := gzip.NewReader(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			plain, err := io.ReadAll(zr)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			zw := gzip.NewWriter(&out)
			zw.Write(edit(plain))
			zw.Close()
			return out.Bytes()
		}
	}
	replace := func(old, new string) func([]byte) []byte {
		return func(b []byte) []byte {
			if !bytes.Contains(b, []byte(old)) {
				t.Fatalf("no %s to bump", old)
			}
			return bytes.Replace(b, []byte(old), []byte(new), 1)
		}
	}
	for path, bump := range map[string]func([]byte) []byte{
		filepath.Join(dir, "metadata.json"):            replace(`"format":1`, `"format":2`),
		filepath.Join(dir, "data", "MANIFEST.json.gz"): regzip(replace(`"version":2`, `"version":3`)),
		wals[0]: func(b []byte) []byte { b = bytes.Clone(b); b[4]++; return b },
	} {
		good, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		newer := bump(good)
		if err := os.WriteFile(path, newer, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Config{RowBlockRows: 64}); !errors.Is(err, durable.ErrUnsupported) {
			t.Fatalf("open over a newer %s: err = %v, want ErrUnsupported", filepath.Base(path), err)
		}
		if kept, err := os.ReadFile(path); err != nil || !bytes.Equal(kept, newer) {
			t.Fatalf("newer %s disturbed: %v", filepath.Base(path), err)
		}
		if moved, _ := filepath.Glob(filepath.Join(dir, "data", "corrupt", "*")); len(moved) != 0 {
			t.Fatalf("open over a newer %s quarantined %v", filepath.Base(path), moved)
		}
		if err := os.WriteFile(path, good, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir, Config{RowBlockRows: 64})
	if err != nil {
		t.Fatalf("open after restoring every file: %v", err)
	}
	checkStreamRead(t, s2, "live", "acts", []string{"v"}, 100)
}

// TestOldWeightStoreLeftUntouched: the engine keeps no weight snapshots,
// so it never creates data/cas/, and a data/cas/ an older binary left —
// here the golden chunk index and object manifest that binary wrote, or
// the same index beside a garbage manifest — neither fails Open nor
// changes by one byte while a parent-linked DNN is logged, flushed,
// dropped, compacted, closed, reopened and queried.
func TestOldWeightStoreLeftUntouched(t *testing.T) {
	net := nn.SimpleCNN("cnn", 4, 1)
	imgs, _ := data.Images(32, 4, 2)
	opts := DNNLogOptions{Scheme: SchemeFull, Layers: []int{11, 13}}
	lifecycle := func(t *testing.T, dir string) {
		t.Helper()
		s, err := Open(dir, Config{})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if _, err := s.LogDNN("cnn@e0", net, imgs, opts); err != nil {
			t.Fatal(err)
		}
		child := opts
		child.Parent = "cnn@e0"
		if _, err := s.LogDNN("cnn@e1", net, imgs, child); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := s.DropModel("cnn@e0"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CompactStore(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = Open(dir, Config{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		res, err := s.Fetch("cnn@e1", "logits", nil, 0, cost.Read)
		if err != nil {
			t.Fatalf("read after reopen: %v", err)
		}
		if res.Data.Rows != imgs.N || res.Data.Cols != 4 {
			t.Fatalf("logits %dx%d, want %dx4", res.Data.Rows, res.Data.Cols, imgs.N)
		}
		if chain, err := s.Lineage("cnn@e1"); err != nil || len(chain) != 1 || chain[0].Parent != "cnn@e0" {
			t.Fatalf("lineage after dropping the parent: %+v, %v", chain, err)
		}
	}
	// readTree maps every file under root to its contents.
	readTree := func(t *testing.T, root string) map[string]string {
		t.Helper()
		files := make(map[string]string)
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			files[path] = string(b)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}

	fresh := t.TempDir()
	lifecycle(t, fresh)
	if _, err := os.Stat(filepath.Join(fresh, "data", "cas")); !os.IsNotExist(err) {
		t.Fatalf("a fresh directory gained data/cas (stat: %v)", err)
	}

	index, err := os.ReadFile(filepath.Join("internal", "cas", "testdata", "parent.mqci"))
	if err != nil {
		t.Fatal(err)
	}
	objects, err := os.ReadFile(filepath.Join("internal", "cas", "testdata", "parent.mqco"))
	if err != nil {
		t.Fatal(err)
	}
	for name, objs := range map[string][]byte{"golden": objects, "garbage manifest": []byte("not an object manifest")} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			casDir := filepath.Join(dir, "data", "cas")
			if err := os.MkdirAll(casDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(casDir, "INDEX.bin"), index, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(casDir, "OBJECTS.bin"), objs, 0o644); err != nil {
				t.Fatal(err)
			}
			before := readTree(t, casDir)
			lifecycle(t, dir)
			if after := readTree(t, casDir); !maps.Equal(after, before) {
				t.Fatalf("data/cas changed: %d files before, %d after", len(before), len(after))
			}
		})
	}
}
