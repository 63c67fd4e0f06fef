package client

// Streaming ingest: live rows go in through IngestRows, durably
// acknowledged batch by batch, and are queryable through Execute as soon
// as the batch is acknowledged.

import (
	"context"
	"fmt"
	"net/http"
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
	return call[IngestResponse](ctx, c, http.MethodPost, "/api/v1/ingest/"+url.PathEscape(model)+"/"+url.PathEscape(interm), req)
}

func wireRowF32(src []float32) []F32 {
	dst := make([]F32, len(src))
	for i, v := range src {
		dst[i] = F32(v)
	}
	return dst
}
