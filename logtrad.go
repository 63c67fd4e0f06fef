package mistique

import (
	"fmt"
	"maps"
	"time"

	"mistique/internal/frame"
	"mistique/internal/metadata"
	"mistique/internal/pipeline"
	"mistique/internal/quant"
)

// LogPipeline runs a TRAD pipeline against env, registers it with the
// MetadataDB (including per-stage timings for the cost model) and logs
// every intermediate it produces into the DataStore. With adaptive
// materialization enabled (Config.Gamma > 0) intermediates are only
// cataloged, not stored; they materialize later once their gamma exceeds
// the threshold (Sec. 4.3 / Alg. 4).
//
// The pipeline object is retained so the ChunkReader can re-run its stored
// transformers to answer queries (the RERUN strategy).
//
// Execution overlaps storage: the calibration re-run (which times the
// fitted transformers for the cost model) executes on its own goroutine
// while the first run's frames are chunked, encoded and stored — the two
// touch disjoint data (pipeline ops clone their inputs, and the first
// run's frames are immutable once produced).
func (s *System) LogPipeline(p *pipeline.Pipeline, env map[string]*frame.Frame) (*LogReport, error) {
	name := p.Name
	if err := s.beginLogging(name, "pipeline"); err != nil {
		return nil, err
	}
	var done *pipelineModel
	defer func() { s.endLogging(name, done, nil) }()
	// Re-attach: the catalog knows this model from a previous process (the
	// directory was reopened) but its transformer state is gone. Refresh
	// the catalog entry; identical chunks re-presented to the store dedup
	// against the flushed data, so the re-log is cheap and idempotent.
	s.meta.DeleteModel(name)
	// Keep our own table map, so a caller's later edits to env do not
	// change what a re-run reads.
	env = maps.Clone(env)

	before := s.store.Stats()
	start := time.Now()
	res, err := p.Run(env)
	if err != nil {
		return nil, fmt.Errorf("mistique: run %s: %w", name, err)
	}
	// The RERUN strategy executes stored transformers without refitting, so
	// the cost model must be calibrated on transform-only timings: measure a
	// second, fitted pass. (Its outputs are identical; we keep the first
	// run's frames.) It runs concurrently with storage below and is joined
	// before stage timings are recorded.
	type timedRun struct {
		res *pipeline.RunResult
		err error
	}
	timedCh := make(chan timedRun, 1)
	go func() {
		r, err := p.Run(env)
		timedCh <- timedRun{res: r, err: err}
	}()

	pm := &pipelineModel{
		p:       p,
		env:     env,
		stageOf: make(map[string]int),
		colsOf:  make(map[string][]string),
	}
	model := &metadata.Model{Name: name, Kind: metadata.TRAD}
	report := &LogReport{Model: name}
	blockRows := s.store.RowBlockRows()

	// Store each intermediate in turn; storeMatrix fans its columns out
	// across the worker pool, so the column axis (the wide one) is already
	// parallel and stacking another fan-out here would only oversubscribe.
	var storeErr error
	for si, sr := range res.Stages {
		model.Stages = append(model.Stages, metadata.Stage{
			Name:  sr.Name,
			Index: si,
		})
		for _, out := range sr.Outputs {
			m, cols := out.Frame.FloatMatrix()
			pm.stageOf[out.Name] = si
			pm.colsOf[out.Name] = cols
			if m.Rows > model.TotalExamples {
				model.TotalExamples = m.Rows
			}
			bytesPerRow := int64(4 * len(cols))
			it := &metadata.Interm{
				Name:       out.Name,
				StageIndex: si,
				Columns:    cols,
				Rows:       m.Rows,
				Blocks:     (m.Rows + blockRows - 1) / blockRows,
			}
			model.Intermediates = append(model.Intermediates, it)
			model.Stages[si].OutputColumns = len(cols)
			model.Stages[si].OutputBytesPerRow = bytesPerRow
			report.Intermediates++
			if s.adaptiveOn() || len(cols) == 0 || m.Rows == 0 {
				report.Skipped++
				continue
			}
			stored, err := s.storeMatrix(name, out.Name, m, cols, nil)
			if err != nil {
				storeErr = err
				break
			}
			it.Materialized = true
			it.QuantScheme = string(SchemeFull)
			it.StoredBytes = stored
		}
		if storeErr != nil {
			break
		}
	}

	timed := <-timedCh
	if storeErr != nil {
		return nil, storeErr
	}
	if timed.err != nil {
		return nil, fmt.Errorf("mistique: calibrate %s: %w", name, timed.err)
	}
	for si := range model.Stages {
		model.Stages[si].ExecSeconds = timed.res.Stages[si].Seconds
	}
	report.Seconds = time.Since(start).Seconds()
	if err := s.meta.RegisterModel(model); err != nil {
		return nil, err
	}
	done = pm // install in s.pipelines via the deferred endLogging
	s.metrics.modelsLogged.Inc()
	s.metrics.ingestSeconds.Observe(report.Seconds)

	after := s.store.Stats()
	report.ColumnsStored = after.ChunksStored - before.ChunksStored
	report.ColumnsDedup = after.ChunksDeduped - before.ChunksDeduped
	report.StoredBytes = after.StoredBytes - before.StoredBytes
	report.LogicalBytes = after.LogicalBytes - before.LogicalBytes
	return report, nil
}

// materializeTRAD stores one pipeline intermediate on demand (the adaptive
// path). It re-runs the stored transformers to obtain the frame.
func (s *System) materializeTRAD(pm *pipelineModel, model, interm string) error {
	si, ok := pm.stageOf[interm]
	if !ok {
		return fmt.Errorf("mistique: %w %s.%s", ErrUnknownIntermediate, model, interm)
	}
	res, err := pm.p.RunTo(pm.env, si)
	if err != nil {
		return err
	}
	f := res.Intermediate(interm)
	if f == nil {
		return fmt.Errorf("mistique: re-run did not produce %s.%s", model, interm)
	}
	m, cols := f.FloatMatrix()
	stored, err := s.storeMatrix(model, interm, m, cols, func([]float32) (*quant.Quantizer, error) { return nil, nil })
	if err != nil {
		return err
	}
	return s.meta.SetMaterialized(model, interm, stored, string(SchemeFull))
}
