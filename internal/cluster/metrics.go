package cluster

import (
	"strings"

	"mistique/internal/obs"
)

// routerMetrics holds the mistique_cluster_* instruments. Registering
// them in a System's obs registry (or any registry a /metrics handler
// exposes) surfaces the cluster's behavior next to the engine's own
// series. Nil-registry safety comes from obs itself: a nil *Registry
// hands out nil no-op instruments.
type routerMetrics struct {
	queries     *obs.Counter
	hedgesFired *obs.Counter
	hedgesWon   *obs.Counter
	failovers   *obs.Counter
	retries     *obs.Counter
	shed        *obs.Counter
	degraded    *obs.Counter

	probes     *obs.Counter
	probeFails *obs.Counter
	toHealthy  *obs.Counter
	toSuspect  *obs.Counter
	toDown     *obs.Counter
}

func newRouterMetrics(reg *obs.Registry) *routerMetrics {
	return &routerMetrics{
		queries:     reg.Counter("mistique_cluster_queries_total", "scatter-gather queries issued by the router"),
		hedgesFired: reg.Counter("mistique_cluster_hedges_fired_total", "hedged sub-requests started after a shard sat past its p95"),
		hedgesWon:   reg.Counter("mistique_cluster_hedges_won_total", "hedged sub-requests that answered before the primary"),
		failovers:   reg.Counter("mistique_cluster_failovers_total", "sub-requests moved to the next replica after a shard error"),
		retries:     reg.Counter("mistique_cluster_retries_total", "replica-chain retry rounds started after full-jitter backoff"),
		shed:        reg.Counter("mistique_cluster_shard_shed_total", "sub-requests shed by a shard's client-side admission semaphore"),
		degraded:    reg.Counter("mistique_cluster_degraded_results_total", "queries answered partially with a typed DegradedError"),
		probes:      reg.Counter("mistique_cluster_probes_total", "health probes sent"),
		probeFails:  reg.Counter("mistique_cluster_probe_failures_total", "health probes that errored or timed out"),
		toHealthy:   reg.Counter("mistique_cluster_healthy_transitions_total", "membership transitions into healthy"),
		toSuspect:   reg.Counter("mistique_cluster_suspect_transitions_total", "membership transitions into suspect"),
		toDown:      reg.Counter("mistique_cluster_down_transitions_total", "membership transitions into down"),
	}
}

// metricName sanitizes a shard id into a Prometheus-safe metric suffix.
func metricName(id ShardID) string {
	var b strings.Builder
	for _, r := range string(id) {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
