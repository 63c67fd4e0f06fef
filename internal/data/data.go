// Package data provides deterministic synthetic stand-ins for the paper's
// two workloads (see DESIGN.md "Substitutions"):
//
//   - Housing: a Zillow/Zestimate-shaped dataset — a properties table with
//     numeric, categorical and missing-valued attributes, and a training
//     table of (parcel, sale month, logerror) rows whose target follows a
//     noisy latent model over the property attributes.
//   - Images: CIFAR10-shaped 3x32x32 images with class-dependent
//     low-frequency structure plus noise, so convolutional features carry
//     class signal and activation statistics are heavy-tailed like real
//     post-ReLU activations.
package data

import (
	"math"
	"math/rand"

	"mistique/internal/frame"
	"mistique/internal/tensor"
)

// HousingTables bundles the synthetic Zillow-style input files.
type HousingTables struct {
	// Properties has one row per parcel with home attributes.
	Properties *frame.Frame
	// Train has (parcelid, month, logerror) sale records.
	Train *frame.Frame
	// Test has (parcelid, month) rows to predict.
	Test *frame.Frame
}

// propertyTypes are the categorical home types.
var propertyTypes = []string{"house", "condo", "townhouse", "victorian", "duplex"}

// regions are the categorical zip-like region codes.
var regions = []string{"90001", "90210", "94103", "98101", "02139", "60601", "73301", "33109"}

// Housing generates nProps parcels and nTrain sale records. The same seed
// always yields identical tables.
func Housing(nProps, nTrain int, seed int64) HousingTables {
	rng := rand.New(rand.NewSource(seed))

	ids := make([]int64, nProps)
	bath := make([]float64, nProps)
	bed := make([]float64, nProps)
	sqft := make([]float64, nProps)
	lot := make([]float64, nProps)
	year := make([]float64, nProps)
	taxValue := make([]float64, nProps)
	taxAmount := make([]float64, nProps)
	lat := make([]float64, nProps)
	lon := make([]float64, nProps)
	pool := make([]float64, nProps)
	garage := make([]float64, nProps)
	region := make([]string, nProps)
	ptype := make([]string, nProps)

	for i := 0; i < nProps; i++ {
		ids[i] = int64(10000 + i)
		bed[i] = float64(1 + rng.Intn(6))
		bath[i] = math.Max(1, bed[i]-float64(rng.Intn(3)))
		sqft[i] = 400*bed[i] + 300*rng.NormFloat64() + 500
		if sqft[i] < 300 {
			sqft[i] = 300
		}
		lot[i] = sqft[i] * (1.5 + 2*rng.Float64())
		year[i] = float64(1900 + rng.Intn(120))
		region[i] = regions[rng.Intn(len(regions))]
		ptype[i] = propertyTypes[rng.Intn(len(propertyTypes))]
		base := 150*sqft[i] + 30000*bath[i] + 500*(year[i]-1900)
		taxValue[i] = base * (0.8 + 0.4*rng.Float64())
		taxAmount[i] = taxValue[i] * 0.012
		lat[i] = 34 + 8*rng.Float64()
		lon[i] = -122 + 10*rng.Float64()
		// ~70% of homes have no pool value recorded (missing, like Zillow).
		if rng.Float64() < 0.3 {
			pool[i] = 1
		} else {
			pool[i] = math.NaN()
		}
		if rng.Float64() < 0.6 {
			garage[i] = float64(rng.Intn(4))
		} else {
			garage[i] = math.NaN()
		}
	}

	props := frame.New(nProps)
	props.AddInts("parcelid", ids)
	props.AddFloats("bathroomcnt", bath)
	props.AddFloats("bedroomcnt", bed)
	props.AddFloats("finishedsquarefeet", sqft)
	props.AddFloats("lotsizesquarefeet", lot)
	props.AddFloats("yearbuilt", year)
	props.AddFloats("taxvaluedollarcnt", taxValue)
	props.AddFloats("taxamount", taxAmount)
	props.AddFloats("latitude", lat)
	props.AddFloats("longitude", lon)
	props.AddFloats("poolcnt", pool)
	props.AddFloats("garagecarcnt", garage)
	props.AddStrings("regionidzip", region)
	props.AddStrings("propertytype", ptype)

	// Sale records: the Zestimate residual (logerror) depends weakly on
	// home attributes plus month seasonality plus noise — enough signal
	// for models to differ meaningfully.
	trainIDs := make([]int64, nTrain)
	months := make([]float64, nTrain)
	logerr := make([]float64, nTrain)
	for i := 0; i < nTrain; i++ {
		p := rng.Intn(nProps)
		trainIDs[i] = ids[p]
		months[i] = float64(1 + rng.Intn(12))
		age := 2017 - year[p]
		logerr[i] = 0.02*math.Sin(months[i]/12*2*math.Pi) +
			0.0002*(age-50) +
			0.00001*(sqft[p]-2000)/10 +
			0.01*rng.NormFloat64()
		if ptype[p] == "victorian" && age > 80 {
			logerr[i] += 0.05 // the "old Victorian homes" failure mode
		}
	}
	train := frame.New(nTrain)
	train.AddInts("parcelid", trainIDs)
	train.AddFloats("month", months)
	train.AddFloats("logerror", logerr)

	nTest := max(nTrain/4, 1)
	testIDs := make([]int64, nTest)
	testMonths := make([]float64, nTest)
	for i := 0; i < nTest; i++ {
		testIDs[i] = ids[rng.Intn(nProps)]
		testMonths[i] = float64(10 + rng.Intn(3))
	}
	test := frame.New(nTest)
	test.AddInts("parcelid", testIDs)
	test.AddFloats("month", testMonths)

	return HousingTables{Properties: props, Train: train, Test: test}
}

// Images generates n synthetic 3x32x32 images across `classes` classes.
// Each class has a distinct spatial frequency and color phase; per-image
// jitter and pixel noise keep the task non-trivial. Pixel values are
// roughly in [0, 1]. Returns the image tensor and per-image labels.
func Images(n, classes int, seed int64) (*tensor.T4, []int) {
	if classes < 1 {
		classes = 1
	}
	rng := rand.New(rand.NewSource(seed))
	const hw = 32
	x := tensor.NewT4(n, 3, hw, hw)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % classes
		labels[i] = cls
		freq := 1 + float64(cls)*0.5
		phase := float64(cls) * 0.7
		jx := rng.Float64() * 2 * math.Pi
		jy := rng.Float64() * 2 * math.Pi
		for c := 0; c < 3; c++ {
			plane := x.Plane(i, c)
			chPhase := phase + float64(c)*2.1
			for y := 0; y < hw; y++ {
				for xx := 0; xx < hw; xx++ {
					v := 0.5 +
						0.25*math.Sin(freq*float64(xx)/hw*2*math.Pi+chPhase+jx) +
						0.25*math.Cos(freq*float64(y)/hw*2*math.Pi+chPhase+jy) +
						0.08*rng.NormFloat64()
					plane[y*hw+xx] = float32(v)
				}
			}
		}
	}
	return x, labels
}

// Sequences generates n synthetic sequences of length seqLen with inputDim
// features per step, across `classes` classes. Each class has a distinct
// temporal frequency, so recurrent models can separate them. The tensor
// layout matches nn.ElmanRNN's input: (N, seqLen*inputDim, 1, 1).
func Sequences(n, seqLen, inputDim, classes int, seed int64) (*tensor.T4, []int) {
	if classes < 1 {
		classes = 1
	}
	rng := rand.New(rand.NewSource(seed))
	x := tensor.NewT4(n, seqLen*inputDim, 1, 1)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % classes
		labels[i] = cls
		freq := 0.5 + float64(cls)*0.9
		phase := rng.Float64() * 2 * math.Pi
		ex := x.Example(i)
		for t := 0; t < seqLen; t++ {
			base := math.Sin(freq*float64(t)/2 + phase)
			for d := 0; d < inputDim; d++ {
				ex[t*inputDim+d] = float32(base + 0.3*float64(d) + 0.05*rng.NormFloat64())
			}
		}
	}
	return x, labels
}

// ConceptMasks builds per-pixel binary concept masks for the first n
// images — a synthetic stand-in for NetDissect's Broden concept labels.
// The concept is "brighter than the image's mean luminance", which real
// early-layer filters tend to track, so concept-aligned units score a
// meaningful IoU. The mask tensor is (n, 1, H, W) with values in {0, 1}.
func ConceptMasks(imgs *tensor.T4, n int) *tensor.T4 {
	n = min(n, imgs.N)
	out := tensor.NewT4(n, 1, imgs.H, imgs.W)
	for i := 0; i < n; i++ {
		dst := out.Plane(i, 0)
		var mean float32
		planes := make([][]float32, imgs.C)
		for c := range planes {
			planes[c] = imgs.Plane(i, c)
		}
		for j := range dst {
			var lum float32
			for _, p := range planes {
				lum += p[j]
			}
			dst[j] = lum / float32(imgs.C)
			mean += dst[j]
		}
		mean /= float32(len(dst))
		for j := range dst {
			if dst[j] > mean {
				dst[j] = 1
			} else {
				dst[j] = 0
			}
		}
	}
	return out
}
