// Package cluster distributes the MISTIQUE query surface across shard
// nodes. A Router places row-blocks of every intermediate on a
// consistent-hash ring keyed by (model, intermediate, row-block) with
// configurable replication. FilterRows, TopK, GetRows and GetIntermediate
// share one scatter-gather skeleton: it clamps the row window by the
// engine's own range rules, fans one shard-local sub-query per row-block
// over the HTTP API (mistique/client), and hands the served blocks to the
// op's merge rule — concatenation by block for a filter, a k-way merge
// under the engine's pinned diag.RankLess comparator for TOPK, row
// stitching for a row range — so a scatter-gather answer is
// bit-identical to a single-node one.
//
// Robustness is the point of the package, not an afterthought:
//
//   - Retries use full-jitter backoff under a per-query budget, so a
//     saturated shard sees a spread-out trickle instead of a synchronized
//     wave.
//   - Hedged requests: when a shard sits past its own p95 latency, the
//     router races the next replica and the first success wins; the loser
//     is cancelled. Tail latency of a slow or hung shard stops being the
//     tail latency of the query.
//   - Active health checks drive a three-state membership view (healthy /
//     suspect / down). Suspects are tried only after healthy replicas,
//     down shards only as a last resort, and probe frequency backs off
//     exponentially while a shard stays bad — a flapping node does not
//     attract a thundering herd of probes.
//   - Per-shard admission control mirrors the server's PR 4 semaphore
//     semantics on the client side: a shard at its in-flight bound sheds
//     instantly and the replica chain goes elsewhere.
//   - Graceful degradation: when a block is replicated, losing a shard is
//     invisible (transparent failover). When it is not, the query returns
//     everything it could compute plus a typed *DegradedError naming
//     exactly the missing row-blocks — never silently wrong data, never
//     an opaque failure.
//
// The fault matrix in the package tests runs a real 3-node in-process
// cluster (three Systems behind three HTTP servers) wrapped in a test-only
// FaultBackend, which extends the internal/faultfs injection philosophy
// to the network: latency, errors, hangs, flaps and partitions.
package cluster

// ShardID names one shard node.
type ShardID string

// Shard pairs a shard's identity with the transport used to reach it.
type Shard struct {
	ID      ShardID
	Backend Backend
}
