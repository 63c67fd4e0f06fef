package sample

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mistique/internal/durable/durabletest"
)

func sampleForCodec(t *testing.T) *Sample {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	const n = 3000
	labels := make([]float32, n)
	vals := make([]float32, n)
	for i := range labels {
		labels[i] = float32(rng.Intn(3))
		switch i % 50 {
		case 0:
			vals[i] = float32(math.NaN())
		case 1:
			vals[i] = float32(math.Inf(-1))
		default:
			vals[i] = rng.Float32() * 100
		}
	}
	mb := NewMatrixBuilder([]string{"label", "act"}, n, Config{Cap: 200})
	mb.SetColumn(0, labels)
	mb.SetColumn(1, vals)
	return mb.Finish()
}

func TestCodecRoundTrip(t *testing.T) {
	s := sampleForCodec(t)
	img := Encode("m1", "conv/act", s)
	model, interm, got, err := Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	if model != "m1" || interm != "conv/act" {
		t.Fatalf("identity = %q/%q", model, interm)
	}
	// NaN fields defeat DeepEqual; compare the encodings instead, which
	// preserve exact bit patterns.
	if !reflect.DeepEqual(Encode("m1", "conv/act", got), img) {
		t.Fatal("re-encode of decode differs")
	}
	// And a resumed builder over the decoded sample keeps working.
	b := Resume(got)
	if err := b.Add([]float32{1, 2}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecEmptySample(t *testing.T) {
	b := NewBuilder([]string{"a"}, Config{Cap: 4})
	img := Encode("m", "i", b.Snapshot())
	_, _, got, err := Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seen != 0 || got.Rows() != 0 {
		t.Fatalf("empty sample decoded as seen=%d k=%d", got.Seen, got.Rows())
	}
}

// reencode is the MQSM round trip the contract, golden and fuzz tests
// share.
func reencode(data []byte) ([]byte, error) {
	model, interm, s, err := Decode(data)
	if err != nil {
		return nil, err
	}
	return Encode(model, interm, s), nil
}

// goldenSample is the sample behind testdata/parent_uniform.mqsm: NaN and
// -Inf cells, small enough for the contract's every-bit sweep.
func goldenSample() []byte {
	b := NewBuilder([]string{"label", "act"}, Config{Cap: 8})
	for i := 0; i < 40; i++ {
		v := float32(i) * 1.5
		switch i % 10 {
		case 3:
			v = float32(math.NaN())
		case 7:
			v = float32(math.Inf(-1))
		}
		b.Add([]float32{float32(i % 3), v})
	}
	return Encode("m1", "conv/act", b.Snapshot())
}

func TestDecoderContract(t *testing.T) {
	durabletest.Contract(t, durabletest.Format{
		Image:     goldenSample(),
		Sealed:    true,
		VersionAt: [2]int{4, 5},
		Decode: func(data []byte) error {
			again, err := reencode(data)
			if err == nil && !bytes.Equal(again, data) {
				t.Fatal("re-encode of decode differs")
			}
			return err
		},
	})
}

// TestGoldenParentImage: testdata/parent_uniform.mqsm was written by the
// code before the stratified variant was deleted (goldenSample, run
// there). Every sample a program wrote then was unstratified, so it must
// decode and re-encode to the same bytes.
func TestGoldenParentImage(t *testing.T) {
	durabletest.Golden(t, "parent_uniform.mqsm", goldenSample(), reencode)
}

// TestGoldenStratifiedParentImage: testdata/parent.mqsm is a stratified
// sample an older binary wrote (label column, three strata). Its strata
// are dropped; its uniform reservoir decodes to exactly what that binary
// decoded, and a resumed builder keeps sampling from it.
func TestGoldenStratifiedParentImage(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "parent.mqsm"))
	if err != nil {
		t.Fatal(err)
	}
	model, interm, s, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if model != "m1" || interm != "conv/act" {
		t.Fatalf("identity = %q/%q", model, interm)
	}
	if !reflect.DeepEqual(s.Cols, []string{"label", "act"}) || s.Seen != 40 || s.Cap != 8 ||
		s.Seed != 5 || s.RNGState != 0xefa6f4a653548930 {
		t.Fatalf("header = cols %q seen %d cap %d seed %d rng %#x", s.Cols, s.Seen, s.Cap, s.Seed, s.RNGState)
	}
	ninf := float32(math.Inf(-1))
	wantStats := []ColStats{
		{Finite: 40, Min: 0, Max: 2},
		{Finite: 32, NaN: 4, NegInf: 4, Min: 0, Max: 58.5},
	}
	if !reflect.DeepEqual(s.Stats, wantStats) {
		t.Fatalf("stats = %+v, want %+v", s.Stats, wantStats)
	}
	if want := []int64{10, 1, 2, 39, 14, 21, 6, 27}; !reflect.DeepEqual(s.RowIDs, want) {
		t.Fatalf("row ids = %v, want %v", s.RowIDs, want)
	}
	wantData := []float32{1, 15, 1, 1.5, 2, 3, 0, 58.5, 2, 21, 0, 31.5, 0, 9, 0, ninf}
	if !reflect.DeepEqual(s.Data, wantData) {
		t.Fatalf("data = %v, want %v", s.Data, wantData)
	}
	again, err := reencode(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, s2, err := Decode(again); err != nil || !reflect.DeepEqual(s2, s) {
		t.Fatalf("re-encoded image decodes to %+v, %v", s2, err)
	}
	if err := Resume(s).Add([]float32{1, 2}); err != nil {
		t.Fatal(err)
	}
}
