package main

import (
	"context"
	"time"
)

// class is one of the paper's Table-1 diagnostic query classes the
// harness issues, plus the streaming write.
type class int

const (
	pointq  class = iota // GetRows, one row
	topk                 // TopK, k=10
	filter               // FilterRows
	coldist              // ColDist
	fetch                // GetIntermediate / Fetch
	ingest               // IngestRows (write side; not a query class)
	numClasses
)

// queryClasses are the five read classes every workload reports a p50 for.
var queryClasses = []class{pointq, topk, filter, coldist, fetch}

var classNames = [numClasses]string{"pointq", "topk", "filter", "coldist", "fetch", "ingest"}

func (c class) String() string { return classNames[c] }

// request is one generated operation. It is built from the seed before
// the timed window opens; the program under test only ever sees these
// fields.
type request struct {
	Class  class
	Model  string
	Interm string
	// Cols names the columns of a pointq or fetch; Col the single column
	// of a topk, filter or coldist.
	Cols []string
	Col  string
	// From/To bound a pointq row range.
	From, To int
	K        int
	Cmp      string
	Bound    float32
	MaxErr   float64
	NEx      int
	// Strategy forces a fetch strategy ("" = cost model, READ, RERUN).
	Strategy string
	// Rows is an ingest batch (row-major).
	Rows [][]float32
	// Verify marks the requests whose responses are kept and checked
	// against the oracle after the window (every 16th).
	Verify bool
	// Due is the open-loop send time as an offset into the window.
	Due time.Duration
}

// rank is one TOPK entry.
type rank struct {
	Row   int
	Value float32
}

// dist is a ColDist answer in the fields the oracle checks.
type dist struct {
	Rows, Finite, NaN, PosInf, NegInf int64
	Min, Max                          float32
	Mean, MeanBound, Std              float64
	P50                               float32
	P50RankBound                      float64
	SampleRows                        int64
}

// approx is the bound an approximate TOPK reports.
type approx struct {
	RankBound        float64
	Rows, SampleRows int64
}

// reply is what a target hands back. The cheap fields are filled on the
// timed path; raw keeps the program's own response value and is decoded
// into Matrix/Rows/TopK/Dist only for verified requests, off the timed
// path.
type reply struct {
	raw any

	Strategy  string
	EstRead   float64
	EstRerun  float64
	EstSample float64
	FetchSecs float64

	Matrix [][]float32
	Rows   []int
	TopK   []rank
	Dist   *dist
	Approx *approx // set when a TOPK was answered approximately
	// Acked/Flushed are an ingest acknowledgement's row counts.
	Acked, Flushed int64
}

// target is one way of reaching the program: an HTTP client connection,
// an in-process System, or a cluster router. All implementations live in
// surface.go.
type target interface {
	Do(ctx context.Context, r *request) (*reply, error)
	// Decode fills the reply's typed answer fields from raw.
	Decode(r *request, rep *reply)
}

// sample is one executed request as the load generator recorded it.
type sample struct {
	idx        int // schedule index
	worker     int // which target (connection) sent it
	class      class
	start, end time.Duration // offsets into the window
	due        time.Duration // open loop only; == start in a closed loop
	err        error
	rep        *reply // kept for verified requests only
	// ackedBefore is the stream row count acknowledged when the request
	// was sent (growing-stream oracle); -1 when not tracked.
	ackedBefore int64
	ackedAfter  int64
}
