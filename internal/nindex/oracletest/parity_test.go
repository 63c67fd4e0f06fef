package oracletest

import (
	"math"
	"math/rand"
	"testing"

	"mistique/internal/nindex"
)

// f32eq compares values bit-wise so NaN == NaN and -0 != +0 distinctions
// cannot hide a divergence (both sides read the same stored values, so
// exact bits are the honest comparison).
func f32eq(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b)
}

func sameEntries(t *testing.T, label string, got, want []nindex.Entry) bool {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d entries, oracle has %d", label, len(got), len(want))
		return false
	}
	for i := range got {
		if got[i].Row != want[i].Row || !f32eq(got[i].Value, want[i].Value) {
			t.Errorf("%s: entry %d = {%d %v}, oracle {%d %v}", label, i, got[i].Row, got[i].Value, want[i].Row, want[i].Value)
			return false
		}
	}
	return true
}

func sameRows(t *testing.T, label string, got, want []int) bool {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d rows, oracle has %d", label, len(got), len(want))
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: row %d = %d, oracle %d", label, i, got[i], want[i])
			return false
		}
	}
	return true
}

// TestIndexScanParity is the differential harness's core sweep: every
// (column shape × size × seed × index layout) instance is probed with
// every TOPK and FilterRows query shape, and each answer must equal the
// naive full-scan oracle exactly. Well over 1000 randomized probes run per
// invocation; any count mismatch, row mismatch, or value-bit mismatch
// fails.
func TestIndexScanParity(t *testing.T) {
	sizes := []int{0, 1, 5, 33, 100, 257}
	configs := []nindex.Config{
		{SegmentEntries: 7}, // many segments: every walk boundary exercised
		{SegmentEntries: 64},
	}
	probes := 0
	for _, kind := range Kinds {
		for _, n := range sizes {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
				col := Column(rng, kind, n)
				for _, cfg := range configs {
					idx := nindex.Build(col, uint32(seed), cfg)
					ks := []int{0, 1, 2, n - 1, n, n + 1, rng.Intn(n + 2)}
					for _, k := range ks {
						got, _, err := idx.TopK(k)
						if err != nil {
							t.Fatalf("%s n=%d seed=%d k=%d: %v", kind, n, seed, k, err)
						}
						want := TopK(col, k)
						if got == nil {
							got = []nindex.Entry{}
						}
						sameEntries(t, probeLabel(kind, n, seed, "topk", k), got, want)
						probes++
					}
					for _, op := range []nindex.Op{nindex.Gt, nindex.Ge, nindex.Lt, nindex.Le} {
						for _, bound := range Bounds(rng, col) {
							got, _, err := idx.FilterRows(op, bound)
							if err != nil {
								t.Fatalf("%s n=%d seed=%d %v %v: %v", kind, n, seed, op, bound, err)
							}
							if got == nil {
								got = []int{}
							}
							sameRows(t, probeLabel(kind, n, seed, op.String(), int(math.Float32bits(bound))), got, FilterRows(col, op, bound))
							probes++
						}
					}
				}
			}
		}
	}
	if probes < 1000 {
		t.Fatalf("parity sweep ran only %d probes, want >= 1000", probes)
	}
	t.Logf("parity sweep: %d probes, zero divergences", probes)
}

func probeLabel(kind ColumnKind, n int, seed int64, op string, k int) string {
	return string(kind) + "/" + op + "/" + itoa(n) + "/" + itoa(int(seed)) + "/" + itoa(k)
}

func itoa(v int) string {
	if v < 0 {
		return "-" + itoa(-v)
	}
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa(v/10) + string(rune('0'+v%10))
}

// TestTopKDecodesPrefixOnly pins the index's point: a small-k probe must
// not decode the whole priority list.
func TestTopKDecodesPrefixOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	col := Column(rng, Uniform, 10_000)
	x := nindex.Build(col, 0, nindex.Config{SegmentEntries: 64})
	_, decoded, err := x.TopK(10)
	if err != nil {
		t.Fatal(err)
	}
	if decoded != 1 {
		t.Fatalf("TopK(10) decoded %d segments, want 1 (of %d)", decoded, x.Segments())
	}
	rows, decoded, err := x.FilterRows(nindex.Gt, 99.99)
	if err != nil {
		t.Fatal(err)
	}
	if decoded >= x.Segments()/2 {
		t.Fatalf("selective filter decoded %d of %d segments", decoded, x.Segments())
	}
	want := FilterRows(col, nindex.Gt, 99.99)
	if got := rows; len(got) != len(want) {
		t.Fatalf("filter found %d rows, oracle %d", len(got), len(want))
	}
}
