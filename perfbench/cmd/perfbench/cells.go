package main

import (
	"errors"
	"fmt"
	"time"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/pattern"
	"nbrallgather/internal/perfmodel"
	"nbrallgather/internal/plancache"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// cellResult is what one cell measured. Host times are in seconds.
type cellResult struct {
	wall   float64
	traced bool
	graphs []graphResult
	plan   planStats
	// Host time and simulated messages of each algorithm's runs.
	runS    [nAlgos]float64
	simMsgs [nAlgos]int64
	// dhBuildS is the central DH build time; cnBuildS that of every CN
	// variant together.
	dhBuildS, cnBuildS float64
	// negS is the distributed DH negotiation's host time.
	negS float64
	// Plan-cache counters and timings (plan-zipf only).
	cache    plancache.Stats
	buildS   float64
	hitP50NS float64
	// self is a traced cell's self time per layer.
	self map[string]float64
}

// cnVariant is one Common Neighbor grouping.
type cnVariant struct {
	k        int
	affinity bool
}

// cellSpec describes a workload whose unit of work is one figure cell
// on one graph of its population: build every algorithm's plan cold,
// run each collective for the trials, and check the outputs.
type cellSpec struct {
	cluster topology.Cluster
	// graphs is the population size; graph i of a run is generated
	// from the seed and i.
	graphs int
	graph  func(seed int64, i int) (*vgraph.Graph, error)
	// delta is the ER density the perfmodel reference needs; 0 for
	// other graphs.
	delta     float64
	msgSize   int
	phantom   bool
	trials    int
	cn        []cnVariant
	negotiate bool
}

type cellWorkload struct {
	spec cellSpec
	ex   []*executor
}

// minCells runs every graph twice.
func (w *cellWorkload) minCells() int { return 2 * w.spec.graphs }

func (w *cellWorkload) setup(seed int64, l *lane) (setupInfo, error) {
	var info setupInfo
	w.ex = make([]*executor, w.spec.graphs)
	for i := range w.ex {
		l.begin("vgraph.gen")
		t0 := time.Now()
		g, err := w.spec.graph(seed, i)
		info.genS += time.Since(t0).Seconds()
		l.end()
		if err != nil {
			return setupInfo{}, err
		}
		if g.N() != w.spec.cluster.Ranks() {
			return setupInfo{}, fmt.Errorf("graph has %d ranks, cluster %d", g.N(), w.spec.cluster.Ranks())
		}
		info.edges += int64(g.Edges())
		w.ex[i] = newExecutor(w.spec.cluster, g, w.spec.msgSize, w.spec.phantom, w.spec.trials)
	}
	return info, nil
}

func (w *cellWorkload) barrier() (float64, error) { return w.ex[0].barrier() }

// cell runs the cell of graph i mod the population size.
func (w *cellWorkload) cell(i int, l *lane, chk *checker) cellResult {
	var res cellResult
	if !chk.op(checkNoGlobalCache()) {
		return res
	}
	gi := i % len(w.ex)
	ex := w.ex[gi]
	g, c := ex.g, ex.c
	gr := graphResult{graph: gi}
	t0 := time.Now()

	// Plans, each built cold.
	var vs []variant
	var lat []float64
	build := func(name string, f func() (collective.Op, error)) (collective.Op, float64, bool) {
		l.begin(name)
		t := time.Now()
		op, err := f()
		d := time.Since(t).Seconds()
		l.end()
		if !chk.op(wrap(err, "%s", name)) {
			return nil, d, false
		}
		lat = append(lat, d)
		return op, d, true
	}
	if op, _, ok := build("collective.naive_build", func() (collective.Op, error) {
		return collective.NewNaive(g), nil
	}); ok {
		vs = append(vs, variant{algo: algoNaive, op: op})
	}
	var dh *collective.DistanceHalving
	if op, d, ok := build("pattern.build", func() (collective.Op, error) {
		return collective.NewDistanceHalving(g, c.L())
	}); ok {
		vs = append(vs, variant{algo: algoDH, op: op})
		res.dhBuildS = d
		dh = op.(*collective.DistanceHalving)
		st := dh.Pattern().Stats
		gr.agentSuccess, gr.maxBuf = st.SuccessRate(), st.MaxBufSources
	}
	for _, v := range w.spec.cn {
		v := v
		op, d, ok := build("collective.cn_build", func() (collective.Op, error) {
			if v.affinity {
				return collective.NewCommonNeighborAffinity(g, v.k)
			}
			return collective.NewCommonNeighbor(g, v.k)
		})
		res.cnBuildS += d
		if ok {
			vs = append(vs, variant{algo: algoCN, k: v.k, op: op})
		}
	}
	res.plan = newPlanStats(lat, time.Since(t0).Seconds())

	ex.runAll(l, chk, vs, &res, &gr)
	if w.spec.negotiate && dh != nil {
		res.negS = negotiate(l, chk, ex, dh.Pattern(), &gr)
	}
	gr.speedup, gr.modelSpeedup = speedups(l, &gr, c, w.spec.delta, ex.msgSize)
	res.graphs = []graphResult{gr}
	return res
}

// negotiate runs the Fig. 8 distributed DH negotiation, requires it to
// pick the central build's agents and origins, and returns its host
// time.
func negotiate(l *lane, chk *checker, ex *executor, central *pattern.Pattern, gr *graphResult) float64 {
	l.begin("pattern.negotiate")
	t0 := time.Now()
	pat, rep, err := pattern.BuildDistributed(ex.config(), ex.g)
	d := time.Since(t0).Seconds()
	l.end()
	if !chk.op(wrap(err, "distributed DH negotiation")) {
		return d
	}
	gr.negVT, gr.negMsgs = rep.Time, rep.Msgs()
	gr.sig = append(gr.sig, rep.Time, float64(rep.Msgs()))
	l.begin("perfbench.check_pattern")
	err = sameAgents(central, pat)
	l.end()
	chk.op(wrap(err, "distributed DH pattern"))
	return d
}

// sameAgents reports whether two DH patterns pick the same agent and
// origin at every step of every rank.
func sameAgents(central, dist *pattern.Pattern) error {
	if len(central.Plans) != len(dist.Plans) {
		return fmt.Errorf("%d rank plans, central build has %d", len(dist.Plans), len(central.Plans))
	}
	for r := range central.Plans {
		a, b := central.Plans[r].Steps, dist.Plans[r].Steps
		if len(a) != len(b) {
			return fmt.Errorf("rank %d: %d steps, central build has %d", r, len(b), len(a))
		}
		for i := range a {
			if a[i].Agent != b[i].Agent || a[i].Origin != b[i].Origin {
				return fmt.Errorf("rank %d step %d: agent %d origin %d, central build has agent %d origin %d",
					r, i, b[i].Agent, b[i].Origin, a[i].Agent, a[i].Origin)
			}
		}
	}
	return nil
}

// speedups returns the measured naive ÷ DH median virtual time and,
// for an ER graph of density delta, the Section V model's prediction.
func speedups(l *lane, gr *graphResult, c topology.Cluster, delta float64, m int) (measured, model float64) {
	if dh := median(gr.algos[algoDH].vt); dh > 0 {
		measured = median(gr.algos[algoNaive].vt) / dh
	}
	if delta > 0 {
		l.begin("perfmodel.speedup")
		model = perfmodel.NiagaraModel(c.Ranks(), c.L()).Speedup(delta, m)
		l.end()
	}
	return measured, model
}

// checkNoGlobalCache fails when a process-wide plan cache is
// installed: the workloads measure cold builds and a private cache.
func checkNoGlobalCache() error {
	if collective.ActivePlanCache() != nil {
		return errors.New("a process-wide plan cache is installed")
	}
	return nil
}
