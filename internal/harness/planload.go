package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/plancache"
	"nbrallgather/internal/planverify"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// The planner heavy-traffic generator: synthetic load for the
// plan-cache service path. Worker goroutines fire plan requests
// Zipf-distributed over thousands of distinct neighborhoods — the
// production shape, where a few hot applications re-request their
// neighborhood's plan millions of times while a long tail stays cold —
// and the harness reports plans/sec, hit rate, coalescing factor and
// p50/p99/p999 request latency, with or without the cache in front of
// the builders.

// PlanLoadConfig describes one planner traffic run. Zero fields take
// the documented defaults.
type PlanLoadConfig struct {
	// Neighborhoods is the number of distinct neighborhood graphs in
	// the request population (default 2000).
	Neighborhoods int
	// Requests is the total number of plan requests fired (default
	// 1e6).
	Requests int
	// Workers is the number of concurrent requesters (default 8).
	Workers int
	// Zipf is the skew exponent s > 1 of the neighborhood popularity
	// distribution (default 1.1; larger is more skewed).
	Zipf float64
	// Seed derives the graph population and every worker's request
	// stream (default 1).
	Seed int64
	// GraphRanks and Density shape the Erdős–Rényi neighborhoods
	// (defaults 64 ranks, δ=0.12).
	GraphRanks int
	Density    float64
	// Cluster is the machine shape plans are built for; the zero value
	// selects the smallest Niagara cluster hosting GraphRanks.
	Cluster topology.Cluster
	// Algos lists the requested plan kinds, cycled per request
	// (default {"dh", "cn"}).
	Algos []string
	// MsgSize is the payload size keyed into the size class (default
	// 1 KiB).
	MsgSize int
	// CacheBytes, Planners and MaxQueue size the cache (defaults per
	// plancache.Config; CacheBytes default 256 MiB so the steady state
	// of the default population fits).
	CacheBytes int64
	Planners   int
	MaxQueue   int
	// VerifyOnInsert runs the planverify invariants on every first
	// insertion; a finding fails the build (and the run).
	VerifyOnInsert bool
	// NoCache bypasses the cache entirely: every request negotiates
	// from scratch. This is the baseline the speedup criterion divides
	// by.
	NoCache bool

	// wrapBuild, when non-nil, wraps every plan builder (a test seam
	// for slowing builds down).
	wrapBuild func(plancache.Builder) plancache.Builder
}

func (c PlanLoadConfig) withDefaults() PlanLoadConfig {
	if c.Neighborhoods <= 0 {
		c.Neighborhoods = 2000
	}
	if c.Requests <= 0 {
		c.Requests = 1_000_000
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Zipf == 0 {
		c.Zipf = 1.1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.GraphRanks <= 0 {
		c.GraphRanks = 64
	}
	if c.Density == 0 {
		c.Density = 0.12
	}
	if c.Cluster.Nodes == 0 {
		c.Cluster = topology.ForRanks(c.GraphRanks, 4)
	}
	if len(c.Algos) == 0 {
		c.Algos = []string{"dh", "cn"}
	}
	if c.MsgSize <= 0 {
		c.MsgSize = 1 << 10
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	return c
}

// PlanLoadResult summarises one traffic run.
type PlanLoadResult struct {
	// Requests is the number of requests fired; Wall the host time the
	// run took; PlansPerSec the throughput of served requests (those
	// that returned a plan).
	Requests    int
	Wall        time.Duration
	PlansPerSec float64
	// HitRate and CoalescingFactor come from the cache counters (zero
	// and one respectively on NoCache runs).
	HitRate          float64
	CoalescingFactor float64
	// P50, P99, P999 are latency percentiles of the served requests.
	P50, P99, P999 time.Duration
	// Overloads counts admission-control rejections observed by the
	// workers. The run tolerates them, but a rejected request is shed,
	// not served: it counts in Requests only. ShedRate is Overloads
	// divided by Requests.
	Overloads int64
	ShedRate  float64
	// Cache is the final counter snapshot (zero value on NoCache
	// runs).
	Cache plancache.Stats
}

func (r PlanLoadResult) String() string {
	return fmt.Sprintf("%d reqs in %v: %.0f plans/s, shed %.1f%%, hit %.1f%%, coalesce %.2fx, p50 %v p99 %v p999 %v",
		r.Requests, r.Wall.Round(time.Millisecond), r.PlansPerSec, 100*r.ShedRate,
		100*r.HitRate, r.CoalescingFactor, r.P50, r.P99, r.P999)
}

// planWorkload is one (neighborhood, algorithm) request target with its
// prebuilt key and builder — the canonicalisation is hoisted here, once
// per cached key, instead of recurring per request.
type planWorkload struct {
	key   plancache.Key
	algo  string
	graph *vgraph.Graph
	build plancache.Builder
}

// MeasurePlanThroughput fires cfg.Requests plan requests from
// cfg.Workers goroutines, Zipf-distributed over cfg.Neighborhoods
// distinct graphs, and reports throughput, hit rate, coalescing and
// tail latency. With cfg.NoCache every request negotiates from scratch
// (the baseline); otherwise requests go through the coalescing,
// admission-controlled service path of one plancache.Cache.
func MeasurePlanThroughput(cfg PlanLoadConfig) (PlanLoadResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Zipf <= 1 {
		return PlanLoadResult{}, fmt.Errorf("harness: Zipf exponent %g must exceed 1", cfg.Zipf)
	}
	cluster := cfg.Cluster
	if cluster.Ranks() < cfg.GraphRanks {
		return PlanLoadResult{}, fmt.Errorf("harness: cluster hosts %d ranks, graphs need %d", cluster.Ranks(), cfg.GraphRanks)
	}

	// Build the request population once: Neighborhoods × Algos
	// workloads with precomputed keys and builders.
	graphs := make([]*vgraph.Graph, cfg.Neighborhoods)
	for i := range graphs {
		g, err := vgraph.ErdosRenyi(cfg.GraphRanks, cfg.Density, cfg.Seed+int64(i))
		if err != nil {
			return PlanLoadResult{}, err
		}
		graphs[i] = g
	}
	// loads is sized exactly, so the &loads[...] pointers in byKey stay
	// valid (append never reallocates).
	loads := make([]planWorkload, 0, cfg.Neighborhoods*len(cfg.Algos))
	byKey := make(map[plancache.Key]*planWorkload, cfg.Neighborhoods*len(cfg.Algos))
	for _, g := range graphs {
		for _, algo := range cfg.Algos {
			g, algo := g, algo
			w := planWorkload{
				key:   collective.PlanKey(algo, g, cluster, cfg.MsgSize, 0, nil),
				algo:  algo,
				graph: g,
				build: func() (any, int64, error) {
					return collective.BuildPlan(algo, g, cluster, 0, nil)
				},
			}
			if cfg.wrapBuild != nil {
				w.build = cfg.wrapBuild(w.build)
			}
			loads = append(loads, w)
			byKey[w.key] = &loads[len(loads)-1]
		}
	}

	var cache *plancache.Cache
	if !cfg.NoCache {
		ccfg := plancache.Config{
			MaxBytes:    cfg.CacheBytes,
			MaxPlanners: cfg.Planners,
			MaxQueue:    cfg.MaxQueue,
		}
		if cfg.VerifyOnInsert {
			ccfg.OnInsert = verifyOnInsert(byKey, cluster, cfg.MsgSize)
		}
		cache = plancache.New(ccfg)
	}

	// Per-worker request streams: independent rngs (so the workload is
	// reproducible regardless of interleaving) and preallocated latency
	// buffers (so measurement itself does not allocate mid-run). Only
	// served requests record a latency; rejected ones are counted.
	per := cfg.Requests / cfg.Workers
	extra := cfg.Requests % cfg.Workers
	lats := make([][]int64, cfg.Workers)
	overloads := make([]int64, cfg.Workers)
	errs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		myReqs := per
		if w < extra {
			myReqs++
		}
		lats[w] = make([]int64, 0, myReqs)
		wg.Add(1)
		go func(w, myReqs int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(w)))
			zipf := rand.NewZipf(rng, cfg.Zipf, 1, uint64(len(loads)-1))
			for i := 0; i < myReqs; i++ {
				ld := &loads[int(zipf.Uint64())]
				t0 := time.Now()
				var err error
				if cache == nil {
					_, _, err = ld.build()
				} else {
					_, err = cache.GetOrBuild(ld.key, ld.build)
				}
				switch {
				case err == nil:
					lats[w] = append(lats[w], time.Since(t0).Nanoseconds())
				case errors.Is(err, plancache.ErrOverload):
					overloads[w]++
				case errs[w] == nil:
					errs[w] = err
				}
			}
		}(w, myReqs)
	}
	wg.Wait()
	wall := time.Since(start)

	for _, err := range errs {
		if err != nil {
			return PlanLoadResult{}, err
		}
	}
	merged := make([]int64, 0, cfg.Requests)
	for _, l := range lats {
		merged = append(merged, l...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	res := PlanLoadResult{
		Requests:         cfg.Requests,
		Wall:             wall,
		PlansPerSec:      float64(len(merged)) / wall.Seconds(),
		CoalescingFactor: 1,
		P50:              percentile(merged, 0.50),
		P99:              percentile(merged, 0.99),
		P999:             percentile(merged, 0.999),
	}
	for _, o := range overloads {
		res.Overloads += o
	}
	res.ShedRate = float64(res.Overloads) / float64(res.Requests)
	if cache != nil {
		res.Cache = cache.Stats()
		res.HitRate = res.Cache.HitRate()
		res.CoalescingFactor = res.Cache.CoalescingFactor()
	}
	return res, nil
}

func percentile(sorted []int64, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return time.Duration(sorted[i])
}

// verifyOnInsert adapts the planverify invariant checker into a cache
// OnInsert hook: the inserted artifact's workload is looked up by key
// and its schedule re-extracted and verified, so every cached plan is
// proven once — on first insertion — instead of trusted forever.
func verifyOnInsert(byKey map[plancache.Key]*planWorkload, cluster topology.Cluster, msgSize int) func(plancache.Key, any) error {
	return func(k plancache.Key, _ any) error {
		ld := byKey[k]
		if ld == nil {
			return fmt.Errorf("harness: verify-on-insert: unknown key %v", k)
		}
		counts := make([]int, ld.graph.N())
		for i := range counts {
			counts[i] = msgSize
		}
		s, err := planverify.Extract(ld.algo, ld.graph, cluster, counts, nil, planverify.Params{})
		if err != nil {
			return fmt.Errorf("harness: verify-on-insert %s: %w", ld.algo, err)
		}
		if findings := s.Verify(); len(findings) > 0 {
			return fmt.Errorf("harness: verify-on-insert %s: %d findings, first: %s",
				ld.algo, len(findings), findings[0])
		}
		return nil
	}
}

// CoalesceResult reports the thundering-herd probe.
type CoalesceResult struct {
	// Requesters is the number of concurrent identical requests fired;
	// Builds the number of negotiations that actually ran; Coalesced
	// the requesters served by another requester's build.
	Requesters int
	Builds     int64
	Coalesced  int64
}

// MeasureCoalescing fires `requesters` concurrent GetOrBuild calls for
// one identical key against a fresh cache and reports how many builds
// actually ran — the singleflight proof: however large the herd, the
// plan is negotiated exactly once. The winning builder holds the
// flight open until every other requester has joined it (observed
// through the Coalesced counter), so the herd provably overlaps
// rather than racing goroutine startup.
func MeasureCoalescing(requesters int) (CoalesceResult, error) {
	if requesters < 1 {
		requesters = 1
	}
	g, err := vgraph.ErdosRenyi(96, 0.2, 42)
	if err != nil {
		return CoalesceResult{}, err
	}
	cluster := topology.ForRanks(96, 4)
	cache := plancache.New(plancache.Config{MaxPlanners: requesters, MaxQueue: requesters})
	key := collective.PlanKey("dh", g, cluster, 1<<10, 0, nil)
	var done sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, requesters)
	for w := 0; w < requesters; w++ {
		done.Add(1)
		go func(w int) {
			defer done.Done()
			<-start // all requesters release together
			_, err := cache.GetOrBuild(key, func() (any, int64, error) {
				// Wait (bounded) for the rest of the herd to coalesce
				// onto this flight before negotiating.
				deadline := time.Now().Add(5 * time.Second)
				for cache.Stats().Coalesced < int64(requesters-1) && time.Now().Before(deadline) {
					time.Sleep(50 * time.Microsecond)
				}
				return collective.BuildPlan("dh", g, cluster, 0, nil)
			})
			errs[w] = err
		}(w)
	}
	close(start)
	done.Wait()
	for _, err := range errs {
		if err != nil {
			return CoalesceResult{}, err
		}
	}
	st := cache.Stats()
	return CoalesceResult{
		Requesters: requesters,
		Builds:     st.Misses,
		Coalesced:  st.Coalesced,
	}, nil
}
