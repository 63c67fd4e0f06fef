package mistique

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mistique/internal/colstore"
	"mistique/internal/cost"
	"mistique/internal/metadata"
	"mistique/internal/tensor"
)

// Answer is the result of one executed Query: the plan that ran, what
// happened on the way, and the op's payload (exactly one group of payload
// fields is set, per Op).
type Answer struct {
	// Plan is the plan that was executed. Its Strategy is what actually
	// answered: RERUN after a READ that had to be recovered.
	Plan
	// Seconds is the measured wall time of the execution.
	Seconds float64
	// Recovered is true when the chosen READ hit missing or quarantined
	// chunks and the answer came from re-running the model ("the model is
	// the backup"); Healed is true when an op bound to stored chunks had
	// them re-materialized and was retried. MaterializedNow is true when
	// this query crossed the adaptive-materialization threshold.
	Recovered, Healed, MaterializedNow bool

	// Data is the matrix of OpGet, OpRows and OpSampleRows, in Plan.Columns
	// order. For OpSampleRows, RowIDs are the rows' ids in the population
	// and Population is how many rows the sample stands for.
	Data       *tensor.Dense
	RowIDs     []int64
	Population int64
	// Rows are OpFilter's matching global row offsets, ascending.
	Rows []int
	// TopK and Neighbors are the ranked answers of OpTopK and OpKNN.
	TopK      []TopKEntry
	Neighbors []Neighbor
	// ColDist, ApproxTopK and Confusion are the sample-or-exact answers;
	// their own target, Strategy and timing fields mirror the Plan's.
	ColDist    *ColDist
	ApproxTopK *TopKApprox
	Confusion  *ConfusionMatrix
}

// Execute plans and runs one query. It is the single execution path of
// every query op: the only code that checks ctx up front, updates
// n_query(i), dispatches to the op's operator, recovers from lost chunks,
// and feeds the metrics, the slow-query log and adaptive materialization
// (Alg. 4). Queries run without any engine-wide lock: reads fan chunk
// fetches out across the worker pool, and re-runs take no lock at all,
// because a re-run writes nothing into the model.
//
// ctx is honored before any work starts, before a model re-run starts,
// and between chunk-read tasks. Recovery and adaptive
// materialization are deliberately *not* bound to ctx — once begun,
// persistence proceeds even if the requesting client has gone away, so a
// slow client cannot leave the store half-materialized.
func (s *System) Execute(ctx context.Context, q Query) (*Answer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	p, err := s.Plan(q)
	if err != nil {
		return nil, err
	}
	nQuery, err := s.meta.RecordQuery(p.Model, p.Intermediate)
	if err != nil {
		return nil, err
	}
	a, err := s.run(ctx, p)
	healed := false
	if err != nil && p.Strategy == cost.Read && p.Force == "" && recoverableReadErr(err) {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		if ops[p.Op].stored {
			// No rerun representation of its own: re-materialize from a
			// model re-run, then retry once.
			if err = s.healIntermediate(p, err); err == nil {
				a, err = s.run(ctx, p)
				healed = true
			}
		} else {
			a, err = s.recoverRead(ctx, p, err)
		}
	}
	if err != nil {
		return nil, err
	}
	a.Plan, a.Healed = *p, healed
	a.sampled = nil // on the SAMPLE path that is a itself
	if a.Recovered {
		a.Strategy = cost.Rerun
	}
	a.Seconds = time.Since(start).Seconds()
	a.mirror()
	s.metrics.observe(a)

	// Adaptive materialization (Alg. 4): storage is worth it once the
	// cumulative saved query time per byte crosses gamma. Two queries
	// racing past the threshold both materialize; the store accepts the
	// identical re-puts as dedup hits, so the race is benign.
	if s.adaptiveOn() && !p.it.Materialized && p.Strategy == cost.Rerun && p.Force == "" {
		estBytes := s.bytesPerRow(p.m, &p.it) * int64(p.it.Rows)
		if cost.Gamma(p.fullRerunSecs, p.fullReadSecs, nQuery, estBytes) >= s.cfg.Gamma {
			if err := s.materialize(p.m, &p.it); err != nil {
				// A concurrent DropModel may have removed the catalog entry
				// mid-materialization; scrub the stray column mappings so
				// their chunks stay reclaimable.
				if s.meta.Model(p.Model) == nil {
					s.store.DeleteModel(p.Model)
				}
				return nil, fmt.Errorf("mistique: adaptive materialization of %s.%s: %w", p.Model, p.Intermediate, err)
			}
			a.MaterializedNow = true
			s.metrics.materializations.Inc()
		}
	}
	s.noteSlowQuery(a)
	return a, nil
}

// run dispatches a plan to its operator. Operators only compute: target
// resolution is Plan's, recovery and bookkeeping are Execute's.
func (s *System) run(ctx context.Context, p *Plan) (*Answer, error) {
	if p.Strategy == cost.Sample {
		return p.sampled, nil
	}
	a := &Answer{}
	var err error
	switch p.Op {
	case OpGet:
		a.Data, err = s.fetchMatrix(ctx, p)
	case OpRows:
		a.Data, err = s.readRowRange(ctx, p.Model, p.Intermediate, p.Columns, p.From, p.To)
	case OpFilter:
		a.Rows, err = s.filterRows(ctx, p)
	case OpTopK:
		a.TopK, err = s.topK(ctx, p)
	case OpKNN:
		a.Neighbors, err = s.knn(ctx, p)
	case OpColDist:
		a.ColDist, err = s.colDist(ctx, p)
	case OpApproxTopK:
		a.ApproxTopK, err = s.approxTopK(ctx, p)
	case OpConfusion:
		a.Confusion, err = s.confusion(ctx, p)
	case OpSampleRows:
		if a.Data, err = s.fetchMatrix(ctx, p); err == nil {
			a.Population = int64(a.Data.Rows)
			a.RowIDs = make([]int64, a.Data.Rows)
			for i := range a.RowIDs {
				a.RowIDs[i] = int64(i)
			}
		}
	}
	return a, err
}

// fetchMatrix produces the first p.To rows of p.Columns by the planned
// exact strategy.
func (s *System) fetchMatrix(ctx context.Context, p *Plan) (*tensor.Dense, error) {
	if p.Strategy == cost.Read {
		return s.readMatrix(ctx, p.Model, p.Intermediate, p.Columns, p.To)
	}
	return s.rerunMatrix(ctx, p.m, &p.it, p.Columns, p.To)
}

// recoverableReadErr reports whether a read failure can be healed by
// re-running the model: the chunks are unavailable (quarantined or lost
// to a crash) or the store lost the column mappings entirely (e.g. a
// corrupt manifest forced an empty restart while the catalog still says
// materialized).
func recoverableReadErr(err error) bool {
	return errors.Is(err, colstore.ErrUnavailable) || errors.Is(err, colstore.ErrNotStored)
}

// recoverRead is the self-healing read path: the cost model chose READ
// but the stored chunks turned out to be unavailable (quarantined by a
// checksum failure, lost to a crash, or gone with a corrupt manifest).
// The query is answered by re-running the model, and the intermediate is
// re-materialized through the normal store path so subsequent queries
// read again.
func (s *System) recoverRead(ctx context.Context, p *Plan, readErr error) (*Answer, error) {
	rerun := *p
	rerun.Strategy = cost.Rerun
	a, err := s.run(ctx, &rerun)
	if err != nil {
		return nil, fmt.Errorf("mistique: read %s.%s failed (%w) and rerun recovery failed: %w", p.Model, p.Intermediate, readErr, err)
	}
	s.store.NoteRecoveredRead()
	s.metrics.rerunFallbacks.Inc()
	// The rerun already answered; a failed re-materialization only means
	// the next query re-runs too (the catalog now says unmaterialized).
	_ = s.rematerialize(p.m, &p.it)
	a.Recovered = true
	return a, nil
}

// healIntermediate re-materializes an intermediate whose stored chunks
// were lost, for the ops that have no rerun representation of their own
// (predicate scans, row-range reads, index builds). A model that cannot be
// re-run gets the read error back with nothing touched.
func (s *System) healIntermediate(p *Plan, readErr error) error {
	stop := s.metrics.healSeconds.Time()
	if err := s.rematerialize(p.m, &p.it); err != nil {
		return fmt.Errorf("mistique: %s of %s.%s: %w; heal failed: %w", p.Op, p.Model, p.Intermediate, readErr, err)
	}
	stop()
	s.metrics.heals.Inc()
	s.store.NoteRecoveredRead()
	return nil
}

// rematerialize replaces an intermediate's stored chunks with a fresh
// model re-run. It first establishes that the model can be re-run — a
// stream, or a model whose executor is not resident, keeps its column
// mappings and its catalog entry exactly as they are, so one bad chunk
// (or a read error that was never about lost chunks) cannot take the
// healthy ones with it. If the re-run then fails to store, the catalog
// entry is flipped to unmaterialized so the cost model stops choosing
// READ for data that is not there.
func (s *System) rematerialize(m *metadata.Model, it *metadata.Interm) error {
	if _, _, err := s.executor(m); err != nil {
		return err
	}
	// Drop the dead mappings first so the fresh puts are stored instead of
	// tripping over quarantined chunk ids.
	s.store.DeleteColumns(m.Name, it.Name)
	err := s.materialize(m, it)
	if err != nil {
		s.meta.SetUnmaterialized(m.Name, it.Name)
	}
	// Re-materialization moved the columns to fresh chunks; drop any
	// diagnostic indexes built over the old ones (their stale signatures
	// would be rejected anyway — this just frees their memory now).
	if s.nidx != nil {
		s.nidx.InvalidateModel(m.Name)
	}
	return err
}
