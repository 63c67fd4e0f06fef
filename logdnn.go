package mistique

import (
	"fmt"
	"sync/atomic"
	"time"

	"mistique/internal/colstore"
	"mistique/internal/metadata"
	"mistique/internal/nn"
	"mistique/internal/parallel"
	"mistique/internal/quant"
	"mistique/internal/tensor"
)

// DNNLogOptions controls how network activations are logged.
type DNNLogOptions struct {
	// Scheme is the storage scheme (default SchemePool2, the paper's
	// default trade-off).
	Scheme Scheme
	// BatchRows is the forward batch size (default RowBlockRows, so one
	// batch fills exactly one RowBlock).
	BatchRows int
	// CalibRows is the sample size used to fit KBIT/THRESHOLD quantile
	// tables (default 256).
	CalibRows int
	// Parent names a previously logged model version (e.g. the prior
	// training epoch). Each stored column is then offered to the store as
	// a delta generation against the parent's column of the same layer,
	// name and block: byte-identical chunks dedup exactly (no similarity
	// work), chunks whose XOR residual against the parent is mostly zero
	// bytes store as that residual, and the rest fall back to full
	// storage. The catalog records the link, so Lineage can walk the
	// version chain.
	Parent string
	// Layers restricts logging to these layer indices (nil = all layers).
	Layers []int
	// PoolAgg selects the POOL_QT aggregation (quant.Avg, the paper's
	// default, or quant.Max).
	PoolAgg quant.Agg
}

func (o DNNLogOptions) withDefaults(blockRows int) DNNLogOptions {
	if o.Scheme == "" {
		o.Scheme = SchemePool2
	}
	if o.BatchRows <= 0 {
		o.BatchRows = blockRows
	}
	if o.CalibRows <= 0 {
		o.CalibRows = 256
	}
	return o
}

// LogDNN runs input through net layer by layer, applies the configured
// quantization/summarization scheme, and logs every layer's activations as
// a model intermediate named after the layer. A copy of the network's
// weights and the input are retained so queries can re-run the forward
// pass (the RERUN strategy): training net after LogDNN returns does not
// change what a re-run computes.
//
// Log each training checkpoint under its own model name (e.g. "vgg@e3");
// frozen layers then produce byte-identical chunks across epochs, which
// exact de-duplication collapses (the paper's fine-tuned-VGG16 result).
//
// Storage overlaps execution: the forward pass streams batch by batch on
// the calling goroutine while each (block, layer) activation is quantized,
// encoded and stored by the worker pool, so a slow disk no longer
// serializes with the GEMMs.
func (s *System) LogDNN(name string, net *nn.Network, input *tensor.T4, opts DNNLogOptions) (*LogReport, error) {
	if err := s.beginLogging(name, "DNN"); err != nil {
		return nil, err
	}
	var done *dnnModel
	defer func() { s.endLogging(name, nil, done) }()
	s.meta.DeleteModel(name) // re-attach after reopen (see LogPipeline)
	net = net.Clone()
	blockRows := s.store.RowBlockRows()
	opts = opts.withDefaults(blockRows)
	if opts.BatchRows != blockRows {
		// Keeping batch == RowBlock makes block boundaries align with
		// forward batches; other sizes are legal but would interleave.
		opts.BatchRows = blockRows
	}
	before := s.store.Stats()
	start := time.Now()

	logSet := make(map[int]bool)
	// maxLayer bounds the forward pass: layers past the deepest logged one
	// produce nothing we keep, so they are never executed.
	maxLayer := net.NumLayers() - 1
	for _, l := range opts.Layers {
		if l < 0 || l >= net.NumLayers() {
			return nil, fmt.Errorf("mistique: layer %d out of range", l)
		}
		logSet[l] = true
	}
	logAll := len(logSet) == 0
	if !logAll {
		maxLayer = 0
		for l := range logSet {
			maxLayer = max(maxLayer, l)
		}
	}

	// Calibration pass for distribution-fitted quantizers.
	quantizers := make([]*quant.Quantizer, net.NumLayers())
	if opts.Scheme == Scheme8Bit || opts.Scheme == SchemeThreshold {
		n := min(opts.CalibRows, input.N)
		sample := net.ForwardAll(input.SliceN(0, n))
		for li, act := range sample {
			if !logAll && !logSet[li] {
				continue
			}
			var err error
			t0 := time.Now()
			switch opts.Scheme {
			case Scheme8Bit:
				quantizers[li], err = quant.FitKBit(act.Data, 8)
			case SchemeThreshold:
				quantizers[li], err = quant.FitThreshold(act.Data, 0.995)
			}
			if err != nil {
				return nil, fmt.Errorf("mistique: calibrate layer %d: %w", li, err)
			}
			s.metrics.ingestQuantizeSeconds.ObserveSince(t0)
		}
	}

	if opts.Parent == name {
		return nil, fmt.Errorf("mistique: model %q cannot be its own parent", name)
	}
	dm := &dnnModel{net: net, input: input, opts: opts, layerOf: make(map[string]int)}
	model := &metadata.Model{Name: name, Kind: metadata.DNN, Parent: opts.Parent, TotalExamples: input.N}
	interms := make([]*metadata.Interm, net.NumLayers())
	layerSecs := make([]float64, net.NumLayers())

	report := &LogReport{Model: name}
	names := net.LayerNames()
	for li, lname := range names {
		dm.layerOf[lname] = li
	}

	// Stream batches: the forward pass runs layer by layer on this
	// goroutine; each logged activation block is handed to the worker pool
	// to summarize, encode and store while the next batch computes. Layer
	// outputs are freshly allocated and never mutated, so workers read them
	// without copies.
	g := parallel.NewGroup(0)
	storedBytes := make([]int64, net.NumLayers())
	for block := 0; block*opts.BatchRows < input.N; block++ {
		if g.Err() != nil {
			break // storage already failed; stop producing work
		}
		lo := block * opts.BatchRows
		hi := min(lo+opts.BatchRows, input.N)
		cur := input.SliceN(lo, hi)
		for li := 0; li <= maxLayer; li++ {
			t0 := time.Now()
			cur = net.Layers[li].Forward(cur)
			fwd := time.Since(t0).Seconds()
			layerSecs[li] += fwd
			s.metrics.ingestForwardSeconds.Observe(fwd)
			if !logAll && !logSet[li] {
				continue
			}
			if interms[li] == nil {
				nCols := s.transformActivation(cur, opts.Scheme, opts.PoolAgg).Flatten().Cols
				cols := make([]string, nCols)
				for j := range cols {
					cols[j] = fmt.Sprintf("u%d", j)
				}
				interms[li] = &metadata.Interm{
					Name:       names[li],
					StageIndex: li,
					Columns:    cols,
					Rows:       input.N,
					Blocks:     (input.N + opts.BatchRows - 1) / opts.BatchRows,
				}
			}
			if s.adaptiveOn() {
				continue
			}
			it, act, q, li, block := interms[li], cur, quantizers[li], li, block
			g.Go(func() error {
				m := s.transformActivation(act, opts.Scheme, opts.PoolAgg).Flatten()
				for j, cname := range it.Columns {
					key := colKey(name, it.Name, cname, block)
					var res colstore.PutResult
					var err error
					if opts.Parent != "" {
						// Delta generation against the parent version's
						// matching column; the store degrades to exact dedup
						// or a full chunk when the parent column is missing
						// or dissimilar, so this path never loses data.
						res, err = s.store.PutColumnDelta(key, m.Col(j), quantFor(opts.Scheme, q),
							colKey(opts.Parent, it.Name, cname, block))
					} else {
						res, err = s.store.PutColumn(key, m.Col(j), quantFor(opts.Scheme, q))
					}
					if err != nil {
						return fmt.Errorf("mistique: store %s: %w", key, err)
					}
					atomic.AddInt64(&storedBytes[li], res.EncodedBytes)
				}
				return nil
			})
		}
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	if !s.adaptiveOn() {
		for li, it := range interms {
			if it == nil {
				continue
			}
			it.StoredBytes = storedBytes[li]
			it.Materialized = true
			it.QuantScheme = string(opts.Scheme)
		}
	}

	for li, lname := range names {
		st := metadata.Stage{Name: lname, Index: li, ExecSeconds: layerSecs[li]}
		if it := interms[li]; it != nil {
			st.OutputColumns = len(it.Columns)
			if it.Rows > 0 {
				bits := schemeBits(opts.Scheme)
				st.OutputBytesPerRow = int64(len(it.Columns)*bits+7) / 8
			}
			report.Intermediates++
			if s.adaptiveOn() {
				report.Skipped++
			}
		}
		model.Stages = append(model.Stages, st)
		if it := interms[li]; it != nil {
			model.Intermediates = append(model.Intermediates, it)
		}
	}
	if err := s.meta.RegisterModel(model); err != nil {
		return nil, err
	}
	done = dm // install in s.networks via the deferred endLogging

	report.Seconds = time.Since(start).Seconds()
	s.metrics.modelsLogged.Inc()
	s.metrics.ingestSeconds.Observe(report.Seconds)
	after := s.store.Stats()
	report.ColumnsStored = after.ChunksStored - before.ChunksStored
	report.ColumnsDedup = after.ChunksDeduped - before.ChunksDeduped
	report.ColumnsDelta = after.DeltaChunks - before.DeltaChunks
	report.StoredBytes = after.StoredBytes - before.StoredBytes
	report.LogicalBytes = after.LogicalBytes - before.LogicalBytes
	return report, nil
}

// transformActivation applies the scheme's summarization (pooling); value
// codecs are applied later at chunk encoding time.
func (s *System) transformActivation(act *tensor.T4, scheme Scheme, agg quant.Agg) *tensor.T4 {
	switch scheme {
	case SchemePool2:
		if act.H > 1 || act.W > 1 {
			return quant.Pool(act, 2, agg)
		}
	case SchemePool4:
		if act.H > 1 || act.W > 1 {
			return quant.Pool(act, 4, agg)
		}
	case SchemePool32:
		if act.H > 1 || act.W > 1 {
			return quant.Pool(act, max(act.H, act.W), agg)
		}
	}
	return act
}

// quantFor returns the value codec for a scheme (fitted quantizers are
// passed through for the distribution-based schemes).
func quantFor(scheme Scheme, fitted *quant.Quantizer) *quant.Quantizer {
	switch scheme {
	case SchemeLP:
		return quant.NewLP()
	case Scheme8Bit, SchemeThreshold:
		return fitted
	default:
		return nil // FULL and POOL store raw float32 values
	}
}

func schemeBits(scheme Scheme) int {
	switch scheme {
	case SchemeLP:
		return 16
	case Scheme8Bit:
		return 8
	case SchemeThreshold:
		return 1
	default:
		return 32
	}
}

func colKey(model, interm, col string, block int) colstore.ColumnKey {
	return colstore.ColumnKey{Model: model, Intermediate: interm, Column: col, Block: block}
}
