package mistique

import (
	"context"
	"fmt"
	"sort"

	"mistique/internal/colstore"
	"mistique/internal/cost"
	"mistique/internal/metadata"
	"mistique/internal/nindex"
	"mistique/internal/parallel"
	"mistique/internal/quant"
	"mistique/internal/tensor"
)

// Result is the answer to an intermediate query.
type Result struct {
	Model        string
	Intermediate string
	Cols         []string
	// Data is an nEx x len(Cols) matrix of (possibly reconstructed)
	// values, in catalog column order.
	Data *tensor.Dense
	// Strategy says whether the engine read the stored intermediate or
	// re-ran the model, per the cost model.
	Strategy cost.Strategy
	// EstReadSecs / EstRerunSecs are the cost-model estimates for the two
	// strategies. Both are always populated — even when only one strategy
	// was available (an unmaterialized intermediate forces RERUN) or the
	// caller forced one via Fetch — so callers can always inspect the
	// trade-off the cost model saw.
	EstReadSecs, EstRerunSecs float64
	// FetchSeconds is the measured wall time of the fetch.
	FetchSeconds float64
	// MaterializedNow is true if this query triggered adaptive
	// materialization of the intermediate.
	MaterializedNow bool
	// Recovered is true when the chosen READ hit missing or quarantined
	// chunks and the engine transparently fell back to re-running the
	// model ("the model is the backup"), re-materializing on the way.
	Recovered bool
}

// GetIntermediate fetches columns of an intermediate for the first nEx
// examples. cols == nil fetches every column; nEx <= 0 fetches all rows.
// The engine consults the query cost model (Sec. 5.1): if the intermediate
// is materialized and reading is estimated cheaper than re-running, it
// reads; otherwise it re-runs the stored model. Each query also updates
// n_query(i), and under adaptive materialization (Config.Gamma > 0) a
// re-run result whose gamma has crossed the threshold is stored on the
// spot, so later queries read.
func (s *System) GetIntermediate(model, interm string, cols []string, nEx int) (*Result, error) {
	return s.GetIntermediateCtx(context.Background(), model, interm, cols, nEx)
}

// GetIntermediateCtx is GetIntermediate under a context; see Execute for
// the cancellation points.
func (s *System) GetIntermediateCtx(ctx context.Context, model, interm string, cols []string, nEx int) (*Result, error) {
	return s.getIntermediate(ctx, model, interm, cols, nEx, "")
}

// Fetch retrieves an intermediate with a caller-forced strategy, bypassing
// the cost model's choice (the evaluation harness uses this to measure both
// sides of every read-vs-re-run trade-off). Forcing Read on an
// unmaterialized intermediate is an error. Query counters still update.
func (s *System) Fetch(model, interm string, cols []string, nEx int, strategy cost.Strategy) (*Result, error) {
	return s.FetchCtx(context.Background(), model, interm, cols, nEx, strategy)
}

// FetchCtx is Fetch under a context.
func (s *System) FetchCtx(ctx context.Context, model, interm string, cols []string, nEx int, strategy cost.Strategy) (*Result, error) {
	return s.getIntermediate(ctx, model, interm, cols, nEx, strategy.String())
}

func (s *System) getIntermediate(ctx context.Context, model, interm string, cols []string, nEx int, force string) (*Result, error) {
	a, err := s.Execute(ctx, Query{Op: OpGet, Model: model, Intermediate: interm, Columns: cols, To: max(nEx, 0), Force: force})
	if err != nil {
		return nil, err
	}
	return &Result{
		Model: model, Intermediate: interm, Cols: a.Columns, Data: a.Data,
		Strategy: a.Strategy, EstReadSecs: a.EstReadSecs, EstRerunSecs: a.EstRerunSecs,
		FetchSeconds: a.Seconds, MaterializedNow: a.MaterializedNow, Recovered: a.Recovered,
	}, nil
}

// Estimate returns the cost model's read and re-run predictions for
// fetching nEx examples of an intermediate, without executing anything or
// updating query counters. Plan returns the same numbers together with
// the strategy they lead to.
func (s *System) Estimate(model, interm string, nEx int) (readSecs, rerunSecs float64, err error) {
	p, err := s.Plan(Query{Op: OpGet, Model: model, Intermediate: interm, To: max(nEx, 0)})
	if err != nil {
		return 0, 0, err
	}
	return p.EstReadSecs, p.EstRerunSecs, nil
}

// readMatrix is the ChunkReader's assembly path: it fans the requested
// intermediate's (column, block) chunks out across the worker pool, each
// task reading, decompressing and decoding one chunk and scattering it
// into a disjoint region of the output matrix — so reassembly preserves
// per-(column, block) ordering regardless of completion order. Each task
// checks ctx before touching the store, so a canceled query stops reading
// at chunk granularity.
func (s *System) readMatrix(ctx context.Context, model, interm string, cols []string, nEx int) (*tensor.Dense, error) {
	out := tensor.NewDense(nEx, len(cols))
	blockRows := s.store.RowBlockRows()
	nBlocks := (nEx + blockRows - 1) / blockRows
	type task struct{ j, b int }
	tasks := make([]task, 0, len(cols)*nBlocks)
	for j := range cols {
		for b := 0; b < nBlocks; b++ {
			tasks = append(tasks, task{j: j, b: b})
		}
	}
	err := parallel.ForEach(len(tasks), func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		t := tasks[i]
		lo := t.b * blockRows
		want := min(nEx-lo, blockRows)
		key := colstore.ColumnKey{Model: model, Intermediate: interm, Column: cols[t.j], Block: t.b}
		vals, err := s.store.GetColumnInto(grabColBuf(), key)
		if err != nil {
			return fmt.Errorf("mistique: read %s: %w", key, err)
		}
		defer releaseColBuf(vals)
		if len(vals) < want {
			return fmt.Errorf("mistique: column %s.%s.%s has %d rows in block %d, need %d", model, interm, cols[t.j], len(vals), t.b, want)
		}
		for r := 0; r < want; r++ {
			out.Data[(lo+r)*out.Cols+t.j] = vals[r]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// executor returns m's resident executor — exactly one of the pipeline
// and the network is non-nil — or why the model cannot be re-run.
func (s *System) executor(m *metadata.Model) (*pipelineModel, *dnnModel, error) {
	switch m.Kind {
	case metadata.TRAD:
		if pm, ok := s.pipelineModelFor(m.Name); ok {
			return pm, nil, nil
		}
	case metadata.DNN:
		if dm, ok := s.dnnModelFor(m.Name); ok {
			return nil, dm, nil
		}
	case metadata.Stream:
		return nil, nil, fmt.Errorf("mistique: stream model %s cannot be re-run; its rows exist only in the store and the WAL", m.Name)
	}
	return nil, nil, fmt.Errorf("mistique: %s model %q not resident; re-log it to enable re-runs", m.Kind, m.Name)
}

// rerunMatrix recomputes the intermediate by executing the stored model.
// Re-runs write nothing into the model, so concurrent ones run in
// parallel; ctx is checked once, before the run starts.
func (s *System) rerunMatrix(ctx context.Context, m *metadata.Model, it *metadata.Interm, cols []string, nEx int) (*tensor.Dense, error) {
	pm, dm, err := s.executor(m)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if dm != nil {
		return s.rerunDNN(dm, it, cols, nEx)
	}
	res, err := pm.p.RunTo(pm.env, it.StageIndex)
	if err != nil {
		return nil, err
	}
	f := res.Intermediate(it.Name)
	if f == nil {
		return nil, fmt.Errorf("mistique: re-run did not produce %s.%s", m.Name, it.Name)
	}
	full, names := f.FloatMatrix()
	return selectCols(full, names, cols, nEx)
}

func (s *System) rerunDNN(dm *dnnModel, it *metadata.Interm, cols []string, nEx int) (*tensor.Dense, error) {
	in := dm.input
	if nEx < in.N {
		in = in.SliceN(0, nEx)
	}
	act := dm.net.ForwardBatched(in, it.StageIndex, dm.opts.BatchRows)
	// Apply the same summarization as storage so the column space matches
	// the catalog (pooled schemes shrink the unit count).
	act = s.transformActivation(act, dm.opts.Scheme, dm.opts.PoolAgg)
	m := act.Flatten()
	return selectCols(m, it.Columns, cols, nEx)
}

// RerunRawDNN recomputes a layer's raw (un-summarized, full-precision)
// activations — the ground truth the quantization-fidelity experiments
// (Fig. 9, Tables 2-3) compare against.
func (s *System) RerunRawDNN(model, layer string, nEx int) (*tensor.T4, error) {
	dm, ok := s.dnnModelFor(model)
	if !ok {
		return nil, fmt.Errorf("mistique: network %q not resident", model)
	}
	li, ok := dm.layerOf[layer]
	if !ok {
		return nil, fmt.Errorf("mistique: network %q has no layer %q", model, layer)
	}
	in := dm.input
	if nEx > 0 && nEx < in.N {
		in = in.SliceN(0, nEx)
	}
	return dm.net.ForwardBatched(in, li, dm.opts.BatchRows), nil
}

func selectCols(full *tensor.Dense, names, want []string, nEx int) (*tensor.Dense, error) {
	nEx = min(nEx, full.Rows)
	idx := make([]int, len(want))
	pos := make(map[string]int, len(names))
	for i, n := range names {
		pos[n] = i
	}
	for i, w := range want {
		j, ok := pos[w]
		if !ok {
			return nil, fmt.Errorf("mistique: no column %q in re-run output", w)
		}
		idx[i] = j
	}
	return full.SliceRows(0, nEx).SelectCols(idx), nil
}

// materialize stores an intermediate on demand (adaptive path, recovery).
func (s *System) materialize(m *metadata.Model, it *metadata.Interm) error {
	pm, dm, err := s.executor(m)
	if err != nil {
		return err
	}
	if pm != nil {
		return s.materializeTRAD(pm, m.Name, it.Name)
	}
	full, err := s.rerunDNN(dm, it, it.Columns, it.Rows)
	if err != nil {
		return err
	}
	// Distribution-fitted codecs need a table; fit it from the data being
	// materialized.
	var fitted *quant.Quantizer
	switch dm.opts.Scheme {
	case Scheme8Bit:
		fitted, err = quant.FitKBit(full.Data, 8)
	case SchemeThreshold:
		fitted, err = quant.FitThreshold(full.Data, 0.995)
	}
	if err != nil {
		return err
	}
	stored, err := s.storeMatrix(m.Name, it.Name, full, it.Columns, func([]float32) (*quant.Quantizer, error) {
		return quantFor(dm.opts.Scheme, fitted), nil
	})
	if err != nil {
		return err
	}
	return s.meta.SetMaterialized(m.Name, it.Name, stored, string(dm.opts.Scheme))
}

// FilterRows evaluates `column op bound` over a materialized intermediate
// — the "find predictions for examples with neuron-50 activation > 0.5"
// query class of Sec. 8.3. Returns matching global row offsets in order.
func (s *System) FilterRows(model, interm, column string, op nindex.Op, bound float32) ([]int, error) {
	return s.FilterRowsCtx(context.Background(), model, interm, column, op, bound)
}

// FilterRowsCtx is FilterRows under a context, honored at entry, inside
// the column fetch behind an index build or the range scan, and between
// a failed read and its heal-and-retry. Execute with an OpFilter Query
// restricts the scan to global rows [From, To), the shard-local form the
// cluster router sends: offsets stay global and the scan path is the
// same, so per-block answers concatenate to the single-node scan.
func (s *System) FilterRowsCtx(ctx context.Context, model, interm, column string, op nindex.Op, bound float32) ([]int, error) {
	a, err := s.Execute(ctx, Query{Op: OpFilter, Model: model, Intermediate: interm, Columns: []string{column}, Pred: op, Bound: bound})
	if err != nil {
		return nil, err
	}
	return a.Rows, nil
}

// filterRows is OpFilter's operator. It prefers the neuron-centric index,
// which decodes only the priority-list segments straddling the bound; any
// index-side trouble falls back to the twin, which reads rows [From, To)
// and tests each value — both paths return identical rows.
func (s *System) filterRows(ctx context.Context, p *Plan) ([]int, error) {
	rows, err := s.filterViaIndex(ctx, p)
	if err != nil {
		return nil, err
	}
	if rows != nil {
		// rows is ascending, so the range restriction is two binary searches.
		return rows[sort.SearchInts(rows, p.From):sort.SearchInts(rows, p.To)], nil
	}
	m, err := s.readRowRange(ctx, p.Model, p.Intermediate, p.Columns, p.From, p.To)
	if err != nil {
		return nil, err
	}
	rows = []int{}
	for i, v := range m.Col(0) {
		if p.Pred.Match(v, p.Bound) {
			rows = append(rows, p.From+i)
		}
	}
	return rows, nil
}

// GetRows reads rows [from, to) of the given columns from a materialized
// intermediate via the primary (row-aligned block) index, touching only
// the covering RowBlocks. Columns are fetched concurrently.
func (s *System) GetRows(model, interm string, cols []string, from, to int) (*tensor.Dense, error) {
	return s.GetRowsCtx(context.Background(), model, interm, cols, from, to)
}

// GetRowsCtx is GetRows under a context; per-column fetch tasks check ctx
// before touching the store.
func (s *System) GetRowsCtx(ctx context.Context, model, interm string, cols []string, from, to int) (*tensor.Dense, error) {
	a, err := s.Execute(ctx, Query{Op: OpRows, Model: model, Intermediate: interm, Columns: cols, From: from, To: to})
	if err != nil {
		return nil, err
	}
	return a.Data, nil
}

// readRowRange assembles rows [from, to) of the given columns via the
// primary (row-aligned block) index, fetching columns concurrently. Shared
// by OpRows and the TOPK and KNN full scans.
func (s *System) readRowRange(ctx context.Context, model, interm string, cols []string, from, to int) (*tensor.Dense, error) {
	out := tensor.NewDense(to-from, len(cols))
	err := parallel.ForEach(len(cols), func(j int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		vals, err := s.store.GetColumnRange(model, interm, cols[j], from, to)
		if err != nil {
			return err
		}
		out.SetCol(j, vals)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
