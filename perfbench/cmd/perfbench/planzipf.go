package main

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"time"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/pattern"
	"nbrallgather/internal/plancache"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// zipfSpec describes the plan-zipf workload: Zipf-distributed plan
// requests over many small ER neighborhoods, served through a fresh,
// private plancache.Cache by a fixed set of closed-loop workers.
type zipfSpec struct {
	neighborhoods int
	ranks         int
	density       float64
	// requests is the number of requests in one round, split evenly
	// across the workers.
	requests int
	workers  int
	zipf     float64
	msgSize  int
	trials   int
	// hot is how many of the most requested neighborhoods each round
	// checks and runs.
	hot int
}

// cacheBytes holds the whole plan population, so no plan is evicted.
const cacheBytes = 256 << 20

// planLoad is one (neighborhood, algorithm) request target.
type planLoad struct {
	key   plancache.Key
	algo  string
	build plancache.Builder
}

type zipfWorkload struct {
	spec  zipfSpec
	c     topology.Cluster
	loads []planLoad
	// streams[w] is worker w's request sequence, indices into loads.
	streams [][]int32
	// ex[j] runs collectives on the j-th most requested neighborhood,
	// whose DH and CN plans are loads[2j] and loads[2j+1].
	ex []*executor
}

// minCells runs two rounds: every hot neighborhood runs twice.
func (w *zipfWorkload) minCells() int { return 2 }

func (w *zipfWorkload) setup(seed int64, l *lane) (setupInfo, error) {
	s := w.spec
	w.c = topology.ForRanks(s.ranks, 4)
	graphs := make([]*vgraph.Graph, s.neighborhoods)
	var info setupInfo
	l.begin("vgraph.gen")
	t0 := time.Now()
	for i := range graphs {
		g, err := vgraph.ErdosRenyi(s.ranks, s.density, seed*1_000_003+int64(i))
		if err != nil {
			l.end()
			return setupInfo{}, err
		}
		graphs[i] = g
		info.edges += int64(g.Edges())
	}
	info.genS = time.Since(t0).Seconds()
	l.end()

	c := w.c
	w.loads = make([]planLoad, 0, 2*len(graphs))
	for _, g := range graphs {
		for _, algo := range []string{"dh", "cn"} {
			g, algo := g, algo
			w.loads = append(w.loads, planLoad{
				key:  collective.PlanKey(algo, g, c, s.msgSize, 0, nil),
				algo: algo,
				build: func() (any, int64, error) {
					return collective.BuildPlan(algo, g, c, 0, nil)
				},
			})
		}
	}
	w.streams = make([][]int32, s.workers)
	for i := range w.streams {
		rng := rand.New(rand.NewSource(seed*7_919 + int64(i)))
		z := rand.NewZipf(rng, s.zipf, 1, uint64(len(w.loads)-1))
		st := make([]int32, s.requests/s.workers)
		for j := range st {
			st[j] = int32(z.Uint64())
		}
		w.streams[i] = st
	}
	w.ex = make([]*executor, s.hot)
	for j := range w.ex {
		w.ex[j] = newExecutor(c, graphs[j], s.msgSize, false, s.trials)
	}
	return info, nil
}

func (w *zipfWorkload) barrier() (float64, error) { return w.ex[0].barrier() }

// cell runs one round: every worker fires its request stream at a
// fresh cache, then the served plans of the most requested
// neighborhoods are compared with cold builds and executed.
func (w *zipfWorkload) cell(_ int, l *lane, chk *checker) cellResult {
	var res cellResult
	if !chk.op(checkNoGlobalCache()) {
		return res
	}
	cache := plancache.New(plancache.Config{MaxBytes: cacheBytes})
	outs := make([]requestStats, len(w.streams))
	parent := l.current()
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range w.streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = drive(cache, w.loads, w.streams[i], l.fork(parent))
		}(i)
	}
	wg.Wait()
	sum := summarize(outs, time.Since(t0).Seconds())
	selfs := make([]map[string]float64, len(outs))
	for i, o := range outs {
		selfs[i] = o.self
	}
	l.merge(selfs, sum.wall)
	chk.add(sum.attempted, sum.rejected+sum.errored, sum.err)
	res.plan = newPlanStats(sum.lat, sum.wall)
	res.cache = cache.Stats()
	res.buildS = sum.buildS
	res.hitP50NS = sum.hitP50NS

	for j, ex := range w.ex {
		checkServed(l, chk, cache, ex, w.loads[2*j:2*j+2], w.spec.density, j, &res)
	}
	return res
}

// checkServed compares one neighborhood's served DH and CN plans with
// cold builds, then runs all three collectives on it.
func checkServed(l *lane, chk *checker, cache *plancache.Cache, ex *executor, loads []planLoad, delta float64, j int, res *cellResult) {
	g, c := ex.g, ex.c
	dhServed, ok1 := cache.Peek(loads[0].key)
	cnServed, ok2 := cache.Peek(loads[1].key)
	if !chk.op(errorIf(!ok1 || !ok2, "neighborhood %d: plans not cached", j)) {
		return
	}
	l.begin("pattern.build")
	t0 := time.Now()
	dhCold, err := pattern.Build(g, c.L())
	res.dhBuildS += time.Since(t0).Seconds()
	l.end()
	if !chk.op(wrap(err, "cold DH build")) {
		return
	}
	l.begin("collective.cn_build")
	t0 = time.Now()
	cnCold, err := collective.NewCommonNeighbor(g, cnDefaultK)
	res.cnBuildS += time.Since(t0).Seconds()
	l.end()
	if !chk.op(wrap(err, "cold CN build")) {
		return
	}
	l.begin("perfbench.check_pattern")
	dhSame := reflect.DeepEqual(dhServed, dhCold)
	cnSame := reflect.DeepEqual(cnServed, cnCold.Pattern())
	l.end()
	if !chk.op(errorIf(!dhSame, "neighborhood %d: served DH plan differs from a cold build", j)) ||
		!chk.op(errorIf(!cnSame, "neighborhood %d: served CN plan differs from a cold build", j)) {
		return
	}
	served, _ := dhServed.(*pattern.Pattern)
	gr := graphResult{graph: j}
	st := served.Stats
	gr.agentSuccess, gr.maxBuf = st.SuccessRate(), st.MaxBufSources
	ex.runAll(l, chk, []variant{
		{algo: algoNaive, op: collective.NewNaive(g)},
		{algo: algoDH, op: collective.NewDistanceHalvingFromPattern(served)},
		{algo: algoCN, k: cnDefaultK, op: cnCold},
	}, res, &gr)
	gr.speedup, gr.modelSpeedup = speedups(l, &gr, c, delta, ex.msgSize)
	res.graphs = append(res.graphs, gr)
}

// cnDefaultK is the group size collective.BuildPlan gives a "cn"
// request with parameter 0.
const cnDefaultK = 3

// requestStats is one worker's account of its requests.
type requestStats struct {
	served, rejected, errored int64
	// lat holds served requests' latencies in nanoseconds; hitLat the
	// subset served without this worker building.
	lat, hitLat []int64
	buildNS     int64
	err         error
	self        map[string]float64
}

// drive fires one worker's request stream through GetOrBuild, one
// request at a time.
func drive(cache *plancache.Cache, loads []planLoad, stream []int32, l *lane) requestStats {
	st := requestStats{lat: make([]int64, 0, len(stream)), hitLat: make([]int64, 0, len(stream))}
	b := &reqBuilder{l: l}
	build := b.build
	for _, i := range stream {
		ld := &loads[i]
		b.ld, b.built = ld, false
		l.begin("plancache.get_or_build")
		t0 := time.Now()
		_, err := cache.GetOrBuild(ld.key, build)
		d := time.Since(t0).Nanoseconds()
		l.end()
		switch {
		case err == nil:
			st.served++
			st.lat = append(st.lat, d)
			if !b.built {
				st.hitLat = append(st.hitLat, d)
			}
		case errors.Is(err, plancache.ErrOverload):
			st.rejected++
		default:
			st.errored++
			if st.err == nil {
				st.err = err
			}
		}
	}
	st.buildNS = b.ns
	st.self = l.flush()
	return st
}

// reqBuilder is a worker's reusable Builder: it runs the current
// request's build and notes that this worker built it.
type reqBuilder struct {
	ld    *planLoad
	built bool
	ns    int64
	l     *lane
}

func (b *reqBuilder) build() (any, int64, error) {
	b.built = true
	name := "pattern.build"
	if b.ld.algo == "cn" {
		name = "collective.cn_build"
	}
	b.l.begin(name)
	t0 := time.Now()
	v, cost, err := b.ld.build()
	b.ns += time.Since(t0).Nanoseconds()
	b.l.end()
	return v, cost, err
}

// roundSummary merges the workers' accounts of one round. Rejected
// and errored requests count as attempted but not as served: they
// add nothing to the throughput or the latency percentiles.
type roundSummary struct {
	attempted, served, rejected, errored int64
	// wall is the round's request-phase host time; lat the served
	// latencies in seconds.
	wall     float64
	lat      []float64
	buildS   float64
	hitP50NS float64
	err      error
}

func summarize(outs []requestStats, wall float64) roundSummary {
	s := roundSummary{wall: wall}
	var hits []int64
	for _, o := range outs {
		s.served += o.served
		s.rejected += o.rejected
		s.errored += o.errored
		s.buildS += float64(o.buildNS) / 1e9
		for _, d := range o.lat {
			s.lat = append(s.lat, float64(d)/1e9)
		}
		hits = append(hits, o.hitLat...)
		if s.err == nil && o.err != nil {
			s.err = o.err
		}
	}
	s.attempted = s.served + s.rejected + s.errored
	sort.Slice(hits, func(i, j int) bool { return hits[i] < hits[j] })
	if len(hits) > 0 {
		s.hitP50NS = float64(hits[(len(hits)-1)/2])
	}
	return s
}

func errorIf(cond bool, format string, args ...any) error {
	if cond {
		return fmt.Errorf(format, args...)
	}
	return nil
}
