package nn

import (
	"bytes"
	"math/rand"
	"testing"

	"mistique/internal/durable/durabletest"
)

// tinyNet is two dense layers: 3·2+2 and 2·1+1 parameters in four tensors,
// small enough for the contract's every-bit sweep.
func tinyNet(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	return &Network{Name: "tiny", InC: 3, InH: 1, InW: 1, Layers: []Layer{
		NewDense("fc1", 3, 2, rng), NewDense("fc2", 2, 1, rng),
	}}
}

// reload loads a checkpoint into a fresh network; what it accepts must
// save back to the same bytes.
func reload(t testing.TB) func([]byte) error {
	return func(blob []byte) error {
		n := tinyNet(2)
		if err := n.LoadWeights(blob); err != nil {
			return err
		}
		if !bytes.Equal(n.SaveWeights(), blob) {
			t.Fatal("accepted checkpoint saves to different bytes")
		}
		return nil
	}
}

// MQNN checkpoints are stored as CAS objects, under the object's CRC, so
// LoadWeights itself only owes the unsealed contract.
func TestLoadWeightsDecoderContract(t *testing.T) {
	durabletest.Contract(t, durabletest.Format{Image: tinyNet(1).SaveWeights(), Decode: reload(t)})
}

func FuzzLoadWeights(f *testing.F) {
	blob := tinyNet(1).SaveWeights()
	f.Add(blob)
	f.Add(blob[:len(blob)-5])
	f.Add([]byte(ckptMagic))
	f.Add(append([]byte(ckptMagic), 4, 0, 0, 0, 0xff, 0xff, 0xff, 0xff)) // a 2^32-weight tensor of nothing
	f.Fuzz(func(t *testing.T, blob []byte) {
		durabletest.Input(t, blob, reload(t))
	})
}
