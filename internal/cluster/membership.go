package cluster

import (
	"context"
	"math/rand/v2"
	"sync"
	"time"
)

// State is a shard's position in the three-state membership view.
//
//	healthy --probe fails--> suspect --DownAfter consecutive--> down
//	suspect/down --probe succeeds--> healthy
//	healthy --probe answers "degraded" (alive, shedding)--> suspect
//
// Suspect means "route around me when you can": the shard keeps its
// place in every replica chain, just at the back, so a stale view can
// never make data unreachable. Down means "last resort only".
type State int32

const (
	Healthy State = iota
	Suspect
	Down
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	}
	return "unknown"
}

// MemberConfig controls the active health checker. Zero values select
// defaults.
type MemberConfig struct {
	// ProbeInterval is the cadence against a healthy shard (default 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (default 1s).
	ProbeTimeout time.Duration
	// DownAfter is the consecutive probe failures that demote suspect to
	// down (default 3). The first failure already marks suspect.
	DownAfter int
	// MaxProbeBackoff caps the per-shard probe backoff (default 30s).
	// While a shard keeps failing its probe interval doubles toward this
	// cap, so a long outage costs O(log) probes, not a steady hammer.
	MaxProbeBackoff time.Duration
}

func (c MemberConfig) withDefaults() MemberConfig {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 3
	}
	if c.MaxProbeBackoff <= 0 {
		c.MaxProbeBackoff = 30 * time.Second
	}
	return c
}

type memberState struct {
	id       ShardID
	be       Backend
	state    State
	fails    int
	interval time.Duration
}

// Membership runs one probe loop per shard and maintains the view. The
// router consults it to order replica chains; anything else (tests, the
// CLI) can read View.
type Membership struct {
	cfg MemberConfig
	met *routerMetrics

	mu      sync.Mutex
	members map[ShardID]*memberState

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

func newMembership(shards []Shard, cfg MemberConfig, met *routerMetrics) *Membership {
	m := &Membership{
		cfg:     cfg.withDefaults(),
		met:     met,
		members: make(map[ShardID]*memberState, len(shards)),
		stop:    make(chan struct{}),
	}
	for _, s := range shards {
		m.members[s.ID] = &memberState{id: s.ID, be: s.Backend, state: Healthy, interval: m.cfg.ProbeInterval}
	}
	return m
}

// Start launches the probe loops (idempotent is not needed — the router
// calls it once).
func (m *Membership) Start() {
	for _, ms := range m.members {
		m.wg.Add(1)
		go m.run(ms)
	}
}

// Close stops every probe loop and waits for them.
func (m *Membership) Close() {
	m.once.Do(func() { close(m.stop) })
	m.wg.Wait()
}

// State returns one shard's current state (Healthy for unknown ids, so a
// misconfigured caller fails open rather than blackholing a shard).
func (m *Membership) State(id ShardID) State {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ms, ok := m.members[id]; ok {
		return ms.state
	}
	return Healthy
}

// setState transitions ms, counting the edge. Caller holds m.mu.
func (m *Membership) setState(ms *memberState, st State) {
	if ms.state == st {
		return
	}
	ms.state = st
	switch st {
	case Healthy:
		m.met.toHealthy.Inc()
	case Suspect:
		m.met.toSuspect.Inc()
	case Down:
		m.met.toDown.Inc()
	}
}

// run is one shard's probe loop. The interval is jittered (half fixed,
// half random) so a fleet of routers never probes in lockstep, and it
// doubles toward MaxProbeBackoff while the shard keeps failing — a
// flapping or dead shard sees O(log outage) probes instead of a herd.
func (m *Membership) run(ms *memberState) {
	defer m.wg.Done()
	timer := time.NewTimer(jitterInterval(m.cfg.ProbeInterval))
	defer timer.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-timer.C:
		}
		ok, degraded := m.probe(ms.be)
		m.mu.Lock()
		switch {
		case ok:
			ms.fails = 0
			ms.interval = m.cfg.ProbeInterval
			m.setState(ms, Healthy)
		case degraded:
			// Alive but asking to be shed: suspect, but never demoted to
			// down and probed at the normal cadence — it answers fast.
			ms.fails = 0
			ms.interval = m.cfg.ProbeInterval
			m.setState(ms, Suspect)
		default:
			ms.fails++
			if ms.fails >= m.cfg.DownAfter {
				m.setState(ms, Down)
			} else {
				m.setState(ms, Suspect)
			}
			ms.interval *= 2
			if ms.interval > m.cfg.MaxProbeBackoff {
				ms.interval = m.cfg.MaxProbeBackoff
			}
		}
		next := ms.interval
		m.mu.Unlock()
		timer.Reset(jitterInterval(next))
	}
}

// probe sends one readiness check. ok means take traffic; degraded means
// alive but shedding (a /readyz 503 with a body, or any decodable
// degraded answer).
func (m *Membership) probe(be Backend) (ok, degraded bool) {
	m.met.probes.Inc()
	ctx, cancel := context.WithTimeout(context.Background(), m.cfg.ProbeTimeout)
	defer cancel()
	resp, ready, err := be.Ready(ctx)
	if err != nil {
		m.met.probeFails.Inc()
		return false, false
	}
	if ready {
		return true, false
	}
	_ = resp
	return false, true
}

// jitterInterval spreads a probe interval over [d/2, d): a fixed floor
// keeps probes from spinning hot, the random half decorrelates loops.
func jitterInterval(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rand.Int64N(int64(half)))
}

// fullJitter draws uniformly from [0, cap] — the retry-backoff sleep
// (mirrors the client's retry policy; see client.Client).
func fullJitter(cap time.Duration) time.Duration {
	if cap <= 0 {
		return 0
	}
	return time.Duration(rand.Int64N(int64(cap) + 1))
}
