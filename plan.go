package mistique

import (
	"errors"
	"fmt"
	"slices"

	"mistique/internal/cost"
	"mistique/internal/metadata"
	"mistique/internal/nindex"
	"mistique/internal/sample"
)

// Typed query errors. Plan wraps these with %w — identically for every op,
// before the store is touched — so callers serving the engine over a
// protocol boundary (internal/server maps them to HTTP 404/409/400) can
// classify failures with errors.Is instead of string matching.
var (
	// ErrUnknownModel marks a query against a model absent from the catalog.
	ErrUnknownModel = errors.New("unknown model")
	// ErrUnknownIntermediate marks a query against an intermediate the
	// model did not produce.
	ErrUnknownIntermediate = errors.New("unknown intermediate")
	// ErrUnknownColumn marks a query naming a column the intermediate does
	// not have.
	ErrUnknownColumn = errors.New("unknown column")
	// ErrNotMaterialized marks a query whose only strategy is READ (forced,
	// or an op that needs stored chunks) against an intermediate that has
	// none.
	ErrNotMaterialized = errors.New("not materialized")
	// ErrBadQuery marks a query that is malformed whatever the catalog
	// holds: a missing target, the wrong number of columns, a negative,
	// inverted or past-the-end row range, a k or query row the op rejects.
	ErrBadQuery = errors.New("bad query")
)

// Op names a query operator; the value doubles as the op's name in the
// slow-query log.
type Op string

const (
	// OpGet fetches the first To rows of the named columns, reading the
	// stored intermediate or re-running the model per the cost model
	// (Sec. 5.1).
	OpGet Op = "get_intermediate"
	// OpRows reads rows [From, To) through the primary (RowBlock) index.
	OpRows Op = "get_rows"
	// OpFilter returns the rows of [From, To) where `column Pred Bound`
	// holds, by index probe or a scan of the window.
	OpFilter Op = "filter_rows"
	// OpTopK ranks the K largest values of a column within [From, To).
	OpTopK Op = "topk"
	// OpKNN returns the K rows nearest to row Row over the named columns.
	OpKNN Op = "knn"
	// OpColDist summarizes one column's distribution within MaxError.
	OpColDist Op = "col_dist"
	// OpApproxTopK is OpTopK answered from the sample within MaxError.
	OpApproxTopK Op = "approx_topk"
	// OpConfusion tabulates (Columns[0], Columns[1]) label/prediction
	// pairs within MaxError.
	OpConfusion Op = "confusion"
	// OpSampleRows returns up to To uniformly sampled rows.
	OpSampleRows Op = "sample_rows"
)

// opTraits is what Plan needs to know about an operator.
type opTraits struct {
	cols     int  // required len(Columns); 0 accepts any, nil meaning all
	from, to bool // honours Query.From / Query.To; a range it ignores is malformed
	stored   bool // works on stored chunks only: READ is its one exact strategy
	sample   bool // may answer from the reservoir sample
}

var ops = map[Op]opTraits{
	OpGet:        {to: true},
	OpRows:       {from: true, to: true, stored: true},
	OpFilter:     {cols: 1, from: true, to: true, stored: true},
	OpTopK:       {cols: 1, from: true, to: true, stored: true},
	OpKNN:        {stored: true},
	OpColDist:    {cols: 1, sample: true},
	OpApproxTopK: {cols: 1, stored: true, sample: true},
	OpConfusion:  {cols: 2, sample: true},
	OpSampleRows: {to: true, sample: true},
}

// TakesTo reports whether o reads the rows before Query.To. Plan sets
// Plan.To to the row count for every op, so only these ops' normalized
// To may be sent back in a Query.
func (o Op) TakesTo() bool { return ops[o].to }

// Query describes one diagnostic query. The zero value of every field but
// Op, Model and Intermediate means "no restriction".
type Query struct {
	Op           Op
	Model        string
	Intermediate string
	// Columns names the columns the op works on; nil means every column.
	// OpFilter, OpTopK, OpColDist and OpApproxTopK take exactly one,
	// OpConfusion the label column then the prediction column.
	Columns []string
	// From and To bound the rows to [From, To). To == 0 means the last
	// row and a To past the end is clamped. OpGet and OpSampleRows read a
	// prefix (From must be 0); OpKNN and the distribution ops take none.
	From, To int
	// Pred and Bound are OpFilter's predicate `column Pred Bound`.
	Pred  nindex.Op
	Bound float32
	// K is the result size of the top-k and KNN ops.
	K int
	// Row is OpKNN's query row.
	Row int
	// MaxError is the tolerance of the sample-or-exact ops, as a fraction
	// of the value range (means), of rank (top-k) or of the row count
	// (confusion cells); <= 0 accepts whatever bound the sample delivers.
	MaxError float64
	// Force pins OpGet to "READ" or "RERUN", bypassing the cost model's
	// choice (and with it recovery and adaptive materialization). Empty
	// lets the cost model decide.
	Force string
}

// Plan is a resolved, costed query: what Execute will run and why.
type Plan struct {
	// Query is the normalized query: Columns resolved against the catalog
	// and [From, To) clamped to the intermediate's rows.
	Query
	// Strategy is how the query will be answered.
	Strategy cost.Strategy
	// EstReadSecs and EstRerunSecs are the cost model's estimates (Eqs.
	// 1-4, READ charged its delta-chain amplification) for the ops that
	// choose between them — always both, whichever was chosen or forced
	// and even when only one was available. Ops bound to stored chunks
	// have nothing to choose and are not costed. EstSampleSecs is set when
	// the sample answers.
	EstReadSecs, EstRerunSecs, EstSampleSecs float64

	m  *metadata.Model
	it metadata.Interm
	// sampled is the SAMPLE answer, computed while checking that its bound
	// fits MaxError.
	sampled *Answer
	// fullRerunSecs and fullReadSecs cost the whole intermediate: the
	// Eq. 5 terms adaptive materialization weighs after a RERUN.
	fullRerunSecs, fullReadSecs float64
}

func badQuery(format string, args ...any) error {
	return fmt.Errorf("mistique: %w: %s", ErrBadQuery, fmt.Sprintf(format, args...))
}

// Plan resolves q against the catalog, normalizes it and picks the
// strategy, without executing anything, touching the store's chunks or
// updating query counters. It is the one place a query target is looked up
// and the one place the cost model is consulted; Execute runs exactly what
// Plan returns.
func (s *System) Plan(q Query) (*Plan, error) {
	tr, ok := ops[q.Op]
	switch {
	case !ok:
		return nil, badQuery("unknown op %q", q.Op)
	case q.Model == "" || q.Intermediate == "":
		return nil, badQuery("%s needs a model and an intermediate", q.Op)
	case tr.cols > 0 && len(q.Columns) != tr.cols, slices.Contains(q.Columns, ""):
		return nil, badQuery("%s takes %d named column(s) (0: any), got %q", q.Op, tr.cols, q.Columns)
	case q.From < 0 || q.To < 0 || (q.To != 0 && q.To < q.From):
		return nil, badQuery("bad row range [%d, %d)", q.From, q.To)
	case !tr.from && q.From != 0, !tr.to && q.To != 0:
		return nil, badQuery("%s cannot start at row %d or stop at row %d", q.Op, q.From, q.To)
	case q.K < 0 || (q.K == 0 && q.Op == OpApproxTopK):
		return nil, badQuery("%s needs k > 0, got %d", q.Op, q.K)
	case q.Row < 0:
		return nil, badQuery("negative query row %d", q.Row)
	case q.Force != "" && (q.Op != OpGet || (q.Force != cost.Read.String() && q.Force != cost.Rerun.String())):
		return nil, badQuery("cannot force strategy %q on %s (want READ, RERUN or empty on %s)", q.Force, q.Op, OpGet)
	}

	m := s.meta.Model(q.Model)
	if m == nil {
		return nil, fmt.Errorf("mistique: %w %q", ErrUnknownModel, q.Model)
	}
	it, ok := s.meta.IntermSnapshot(q.Model, q.Intermediate)
	if !ok {
		return nil, fmt.Errorf("mistique: %w %s.%s", ErrUnknownIntermediate, q.Model, q.Intermediate)
	}
	if c, missing := unknownColumn(it.Columns, q.Columns); missing {
		return nil, fmt.Errorf("mistique: %w %s.%s.%s", ErrUnknownColumn, q.Model, q.Intermediate, c)
	}
	if q.From > it.Rows || (q.Op == OpKNN && q.Row >= it.Rows) {
		return nil, badQuery("row %d is past the %d rows of %s.%s", max(q.From, q.Row), it.Rows, q.Model, q.Intermediate)
	}
	p := &Plan{Query: q, Strategy: cost.Read, m: m, it: it}
	if len(q.Columns) == 0 {
		p.Columns = it.Columns
	}
	if q.To == 0 || q.To > it.Rows {
		p.To = it.Rows
	}

	costP := s.CostParams()
	if tr.sample {
		// A sample that has seen fewer rows than the catalog holds (e.g. one
		// restarted empty after its file was quarantined on a drained
		// stream) does not describe the intermediate, and an empty one
		// describes nothing even while the catalog still shows 0 rows; plan
		// the exact path.
		s.sampleFor(q.Model, q.Intermediate, func(sm *sample.Sample) {
			if sm.Seen == 0 || sm.Seen < int64(it.Rows) {
				return
			}
			// The sample is as fresh as the last acknowledged row, so it is
			// asked with the caller's row limit, not the catalog's.
			if a, rows := sampleAnswer(p, q.To, sm); a != nil {
				p.sampled, p.Strategy = a, cost.Sample
				p.EstSampleSecs = cost.SampleReadSeconds(rows, int64(4*len(p.Columns)), costP)
			}
		})
	}
	if !tr.stored {
		// READ is charged its delta-chain amplification: reconstructing a
		// chunk stored as a generation-d residual pages in d+1 generations
		// cold, so a deep chain tips the choice back to RERUN exactly when
		// it should.
		width := s.bytesPerRow(m, &it)
		p.EstReadSecs = cost.ChainReadSeconds(width, p.To, s.store.MaxDeltaDepth(q.Model, q.Intermediate), costP)
		// A model without stages (a stream) has no RERUN to cost or choose.
		var rerunErr error
		if p.EstRerunSecs, rerunErr = cost.RerunSeconds(m, it.StageIndex, p.To, costP); rerunErr == nil && !it.Materialized {
			p.fullRerunSecs, _ = cost.RerunSeconds(m, it.StageIndex, it.Rows, costP)
			p.fullReadSecs = cost.ReadSeconds(width, it.Rows, costP)
		}
		switch {
		case p.sampled != nil, q.Force == cost.Read.String(), q.Force == "" && rerunErr != nil:
			// SAMPLE, or READ as forced or as the only exact strategy.
		case q.Force != "", !it.Materialized, cost.Choose(p.EstRerunSecs, p.EstReadSecs) == cost.Rerun:
			p.Strategy = cost.Rerun
		}
		if p.Strategy == cost.Rerun && rerunErr != nil {
			return nil, fmt.Errorf("mistique: %s model %s cannot be re-run: %w", m.Kind, q.Model, rerunErr)
		}
	}
	if p.Strategy == cost.Read && !it.Materialized {
		return nil, fmt.Errorf("mistique: %s.%s is %w; %s has no stored chunks to read", q.Model, q.Intermediate, ErrNotMaterialized, q.Op)
	}
	return p, nil
}

// unknownColumn returns the first name in want that have lacks.
func unknownColumn(have, want []string) (string, bool) {
	// A handful of names is cheaper to scan for than a wide layer is to
	// index; past that, one set beats len(want) scans.
	contains := func(w string) bool { return slices.Contains(have, w) }
	if len(want) > 8 {
		set := make(map[string]struct{}, len(have))
		for _, c := range have {
			set[c] = struct{}{}
		}
		contains = func(w string) bool { _, ok := set[w]; return ok }
	}
	for _, w := range want {
		if !contains(w) {
			return w, true
		}
	}
	return "", false
}

// bytesPerRow returns the stored width of one example of the intermediate.
func (s *System) bytesPerRow(m *metadata.Model, it *metadata.Interm) int64 {
	if it.StageIndex >= 0 && it.StageIndex < len(m.Stages) {
		if b := m.Stages[it.StageIndex].OutputBytesPerRow; b > 0 {
			return b
		}
	}
	return int64(4 * len(it.Columns))
}
