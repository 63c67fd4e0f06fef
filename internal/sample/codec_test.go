package sample

import (
	"bytes"
	"math"
	"math/rand"
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
	mb := NewMatrixBuilder([]string{"label", "act"}, n, labels,
		Config{Cap: 200, StratumCap: 32, Seed: 5, StratifyColumn: "label"})
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

// goldenSample is the sample behind testdata/parent.mqsm: stratified, with
// NaN and -Inf cells, small enough for the contract's every-bit sweep.
func goldenSample() []byte {
	b := NewBuilder([]string{"label", "act"}, Config{Cap: 8, StratumCap: 3, Seed: 5, StratifyColumn: "label"})
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

// TestGoldenParentImage: testdata/parent.mqsm was written by the commit
// before the decoders moved onto durable.Reader (goldenSample, run there).
func TestGoldenParentImage(t *testing.T) {
	durabletest.Golden(t, "parent.mqsm", goldenSample(), reencode)
}
