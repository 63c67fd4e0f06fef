package main

import (
	"fmt"
	"path/filepath"
	"sort"
)

// probeData picks the data the layer probes run on, all of it produced by
// the workload itself: the oracle tables' longest columns, the stream's
// rows where there is one, and the partition files the store wrote.
type probeData struct {
	colNames []string
	cols     [][]float32 // column-major, equal length
	rows     [][]float32 // the same values row-major
	bounds   []float32   // a filter bound per column
}

func pickProbeData(tables map[string]*table, maxCols, maxRows int) (probeData, error) {
	var pd probeData
	keys := make([]string, 0, len(tables))
	for k := range tables {
		keys = append(keys, k)
	}
	// The table with the most rows first; ties by name, so the pick is
	// the same on every run of a seed.
	sort.Slice(keys, func(i, j int) bool {
		if tables[keys[i]].rows != tables[keys[j]].rows {
			return tables[keys[i]].rows > tables[keys[j]].rows
		}
		return keys[i] < keys[j]
	})
	for _, k := range keys {
		t := tables[k]
		names := make([]string, 0, len(t.cols))
		for name := range t.cols {
			names = append(names, name)
		}
		sort.Strings(names)
		n := t.rows
		if n > maxRows {
			n = maxRows
		}
		if len(pd.cols) > 0 && len(pd.cols[0]) != n {
			continue
		}
		for _, name := range names {
			if len(pd.cols) == maxCols {
				break
			}
			col := t.cols[name][:n]
			pd.colNames = append(pd.colNames, fmt.Sprintf("%s/%s", k, name))
			pd.cols = append(pd.cols, col)
			pd.bounds = append(pd.bounds, columnQuantile(col, 0.99))
		}
		if len(pd.cols) == maxCols {
			break
		}
	}
	if len(pd.cols) == 0 {
		return pd, fmt.Errorf("no oracle table to probe the layers with")
	}
	n := len(pd.cols[0])
	flat := make([]float32, n*len(pd.cols))
	pd.rows = make([][]float32, n)
	for i := range pd.rows {
		row := flat[i*len(pd.cols) : (i+1)*len(pd.cols)]
		for j := range row {
			row[j] = pd.cols[j][i]
		}
		pd.rows[i] = row
	}
	return pd, nil
}

// runProbes times direct calls into each storage layer and files the
// numbers under the per-layer metric names.
func runProbes(e *env, st *stack, storeDir, dir string, blockRows int, vals series) error {
	pd, err := pickProbeData(st.tables, 8, 16<<10)
	if err != nil {
		return err
	}
	images, err := partitionImages(storeDir, e.sc.probeBytes)
	if err != nil {
		return err
	}
	for _, name := range []string{"gzip", "actz", "store"} {
		enc, dec, ratio, err := codecProbe(name, images)
		if err != nil {
			return err
		}
		vals.add("codec."+name+".encode_mb_s", enc)
		vals.add("codec."+name+".decode_mb_s", dec)
		vals.add("codec."+name+".ratio", ratio)
	}
	q, err := quantProbe(pd.cols)
	if err != nil {
		return err
	}
	vals.add("quant.lp_encode_mb_s", q.lpEncMBs)
	vals.add("quant.lp_decode_mb_s", q.lpDecMBs)
	vals.add("quant.kbit_decode_mb_s", q.kbitDecMBs)
	vals.add("quant.fit_ms", q.fitMs)

	cs, err := colstoreProbe(filepath.Join(dir, "colstore"), e.codec, pd.cols)
	if err != nil {
		return err
	}
	vals.add("colstore.put_us_per_chunk", cs.putUsPerChunk)
	vals.add("colstore.flush_ms_per_partition", cs.flushMsPerPartition)
	vals.add("colstore.write_bytes_per_raw_byte", cs.writeBytesPerRawByte)
	vals.add("colstore.fsyncs", cs.fsyncs)
	vals.add("colstore.dedup_ratio", cs.dedupRatio)
	vals.add("colstore.cold_get_ms", cs.coldGetMs)
	vals.add("colstore.warm_get_us", cs.warmGetUs)

	nx, err := nindexProbe(filepath.Join(dir, "nindex-probe"), pd.cols, pd.bounds, topK, blockRows)
	if err != nil {
		return err
	}
	vals.add("nindex.build_ms", nx.buildMs)
	vals.add("nindex.probe_us", nx.probeUs)
	vals.add("nindex.rows_decoded_per_result", nx.decodedPerResult)

	sp, err := sampleProbe(pd.colNames, pd.rows, topK)
	if err != nil {
		return err
	}
	vals.add("sample.add_ns_per_row", sp.addNsPerRow)
	vals.add("sample.query_us", sp.queryUs)

	var batches [][]byte
	for i := 0; (i+1)*blockRows <= len(pd.rows) && len(batches) < 8; i++ {
		batches = append(batches, batchPayload(pd.rows[i*blockRows:(i+1)*blockRows]))
	}
	rowsPerBatch := blockRows
	if len(batches) == 0 {
		batches, rowsPerBatch = [][]byte{batchPayload(pd.rows)}, len(pd.rows)
	}
	wl, err := walProbe(dir, batches, rowsPerBatch)
	if err != nil {
		return err
	}
	vals.add("wal.append_us", wl.appendUs)
	vals.add("wal.fsyncs_per_batch", wl.fsyncsPerBatch)
	vals.add("wal.bytes_per_row", wl.bytesPerRow)

	ca, err := casProbe(filepath.Join(dir, "cas"), images)
	if err != nil {
		return err
	}
	vals.add("cas.put_mb_s", ca.putMBs)
	vals.add("cas.dedup_ratio", ca.dedupRatio)
	return nil
}
