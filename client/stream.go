package client

// Streaming-ingest and approximate-query client methods. These pair with
// the server's /api/v1/ingest and /api/v1/approx endpoints: live rows go
// in through IngestRows (durably acknowledged batch by batch), and
// diagnosis queries come back at interactive latency through the sampled
// variants, each carrying its error bound and the strategy that answered.

import (
	"context"
	"fmt"
	"net/url"
)

// IngestRows appends one batch of rows to a streaming intermediate,
// creating the stream on first use. A nil error means the batch is
// durable on the server (fsynced WAL): it survives any server crash.
// Batches of the same stream must use the same column set.
func (c *Client) IngestRows(ctx context.Context, model, interm string, cols []string, rows [][]float32) (*IngestResponse, error) {
	if model == "" || interm == "" {
		return nil, fmt.Errorf("client: ingest needs model and intermediate")
	}
	req := IngestRequest{Columns: cols, Rows: make([][]F32, len(rows))}
	for i, r := range rows {
		req.Rows[i] = wireRowF32(r)
	}
	var resp IngestResponse
	path := "/api/v1/ingest/" + url.PathEscape(model) + "/" + url.PathEscape(interm)
	if err := c.do(ctx, "POST", path, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ColDist estimates a column's distribution. maxError is the acceptable
// mean error as a fraction of the value range; 0 takes whatever bound the
// sample delivers, and a tighter request than the sample can honor is
// answered exactly (Strategy reports which happened).
func (c *Client) ColDist(ctx context.Context, model, interm, column string, maxError float64) (*ColDistResponse, error) {
	var resp ColDistResponse
	err := c.do(ctx, "POST", "/api/v1/approx/coldist", ColDistRequest{
		Model: model, Intermediate: interm, Column: column, MaxError: maxError,
	}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// ApproxTopK ranks a column's top k rows from the reservoir sample when
// the rank bound satisfies maxError, exactly otherwise.
func (c *Client) ApproxTopK(ctx context.Context, model, interm, column string, k int, maxError float64) (*ApproxTopKResponse, error) {
	var resp ApproxTopKResponse
	err := c.do(ctx, "POST", "/api/v1/approx/topk", ApproxTopKRequest{
		Model: model, Intermediate: interm, Column: column, K: k, MaxError: maxError,
	}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Confusion builds a label-vs-prediction confusion matrix, sampled (with
// per-cell count bounds) when maxError admits it, exact otherwise.
func (c *Client) Confusion(ctx context.Context, model, interm, labelCol, predCol string, maxError float64) (*ConfusionResponse, error) {
	var resp ConfusionResponse
	err := c.do(ctx, "POST", "/api/v1/approx/confusion", ConfusionRequest{
		Model: model, Intermediate: interm, LabelCol: labelCol, PredCol: predCol, MaxError: maxError,
	}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

func wireRowF32(src []float32) []F32 {
	dst := make([]F32, len(src))
	for i, v := range src {
		dst[i] = F32(v)
	}
	return dst
}
