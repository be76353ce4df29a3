// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator's packages (vgraph, collective,
// pattern, mpirt, plancache, planverify, perfmodel) for a fixed time,
// checks every output, and prints each metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"cell_s": {"value": 1.31, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the per-layer ones, from a run that also records a span around every
// layer call and writes the spans out when it ends. Build and run it
// from the repository root with
//
//	bash perfbench/run.sh --workload er-small --seed 1 --seconds 10 --trace 0
//
// perfbench/README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// workload is one named benchmark input: set-up builds its inputs from
// the seed, and each cell is one checked unit of work on them.
type workload interface {
	// setup builds the inputs, replacing those of an earlier call. It
	// builds no plan.
	setup(seed int64, l *lane) (setupInfo, error)
	// cell runs the i-th cell of the run.
	cell(i int, l *lane, chk *checker) cellResult
	// minCells is the fewest cells a run makes: enough that every
	// graph the workload executes runs twice, and the second run must
	// reproduce the first one's virtual times and counts exactly.
	minCells() int
	// barrier times a barrier-only run of the trial loop.
	barrier() (float64, error)
}

type setupInfo struct {
	genS  float64
	edges int64
}

// newWorkload returns the named workload at full scale, or at a tiny
// scale that runs in well under a second (for tests).
func newWorkload(name string, tiny bool) (workload, error) {
	switch name {
	case "er-small":
		// The paper's Fig. 4 regime: ER δ=0.3 on 288 ranks, 18 per
		// socket. A run covers 12 graphs, so the virtual-time medians
		// do not hang on one graph.
		s := cellSpec{
			cluster: topology.Niagara(8, 18), graphs: 12,
			delta: 0.3, msgSize: 32, trials: 3, negotiate: true,
			cn: []cnVariant{{2, false}, {4, false}, {8, false}, {2, true}, {4, true}, {8, true}},
		}
		if tiny {
			s.cluster, s.graphs = topology.Niagara(2, 3), 2
		}
		n, delta := s.cluster.Ranks(), s.delta
		s.graph = func(seed int64, i int) (*vgraph.Graph, error) {
			return vgraph.ErdosRenyi(n, delta, seed*1_000_003+int64(i))
		}
		return &cellWorkload{spec: s}, nil
	case "moore-large":
		// 16 384 ranks of a 128×128 Moore r=1 halo, 32 per socket. The
		// graph has no randomness, so the seed is unused.
		side := 128
		s := cellSpec{
			cluster: topology.Niagara(256, 32), graphs: 1,
			msgSize: 4096, phantom: true, trials: 3,
			cn: []cnVariant{{8, false}},
		}
		if tiny {
			side, s.cluster = 8, topology.Niagara(2, 16)
		}
		s.graph = func(int64, int) (*vgraph.Graph, error) { return vgraph.Moore([]int{side, side}, 1) }
		return &cellWorkload{spec: s}, nil
	case "plan-zipf":
		s := zipfSpec{neighborhoods: 2000, ranks: 64, density: 0.12, requests: 400_000,
			workers: 2, zipf: 1.1, msgSize: 1024, trials: 3, hot: 16}
		if tiny {
			s.neighborhoods, s.ranks, s.requests, s.hot = 40, 16, 4000, 2
		}
		return &zipfWorkload{spec: s}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want er-small, plan-zipf or moore-large)", name)
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	tiny     bool
	spans    string
}

func parseArgs(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: er-small, moore-large or plan-zipf")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 10, "seconds to run cells for (every graph runs at least twice)")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	scale := fs.String("scale", "full", "full, or tiny for a quick functional run")
	fs.StringVar(&o.spans, "spans", "", "directory the span file of a traced run is written to")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() != 0:
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	case *trace != 0 && *trace != 1:
		return o, fmt.Errorf("--trace %d: want 0 or 1", *trace)
	case *scale != "full" && *scale != "tiny":
		return o, fmt.Errorf("--scale %q: want full or tiny", *scale)
	case o.seconds < 0:
		return o, fmt.Errorf("--seconds %d: want a non-negative count", o.seconds)
	}
	o.trace, o.tiny = *trace == 1, *scale == "tiny"
	return o, nil
}

func run(args []string, stdout io.Writer) error {
	o, err := parseArgs(args)
	if err != nil {
		return err
	}
	w, err := newWorkload(o.workload, o.tiny)
	if err != nil {
		return err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	// Cells, until the time is up. Set-up runs again before every cell
	// and rebuilds the same inputs from the seed, so its repetitions
	// spread over the whole run like the cells do. A pass is half the
	// minimum and runs every graph once. A traced run traces every other
	// cell, shifted by one in every other pass, so traced and untraced
	// cells interleave over the same graphs and their difference is the
	// tracing overhead.
	var setupS, genS []float64
	var info setupInfo
	pass := w.minCells() / 2
	chk := &checker{}
	var cells []cellResult
	first := map[int]*graphResult{}
	var graphs []*graphResult // each graph's first result, in order
	start := time.Now()
	for i := 0; i < w.minCells() || time.Since(start) < time.Duration(o.seconds)*time.Second; i++ {
		var d float64
		d, info, err = timeSetup(w, o.seed, tr.lane(-1-i, 0))
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupS, genS = append(setupS, d), append(genS, info.genS)

		// Every cell starts from the same heap, so the peak resident
		// memory does not hang on the garbage collector's timing.
		debug.FreeOSMemory()
		var l *lane
		if o.trace && (i%pass+i/pass)%2 == 1 {
			l = tr.lane(i, 0)
		}
		l.begin("perfbench.cell")
		t0 := time.Now()
		res := w.cell(i, l, chk)
		res.wall = time.Since(t0).Seconds()
		l.end()
		res.self, res.traced = l.flush(), l != nil
		for j := range res.graphs {
			gr := &res.graphs[j]
			if f := first[gr.graph]; f != nil {
				chk.op(wrap(sameSig(f.sig, gr.sig), "graph %d", gr.graph))
			} else {
				first[gr.graph] = gr
				graphs = append(graphs, gr)
			}
		}
		cells = append(cells, res)
	}

	var barrierS float64
	if o.trace {
		l := tr.lane(len(cells), 0)
		l.begin("mpirt.barrier")
		barrierS, err = w.barrier()
		l.end()
		l.flush()
		chk.op(wrap(err, "barrier-only run"))
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}

	r := &report{opts: o, setupS: setupS, genS: genS, info: info, cells: cells, graphs: graphs,
		chk: chk, rssMiB: rss, barrierS: barrierS}
	if tr != nil {
		r.spans = tr.total()
		if o.spans != "" {
			name := fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed)
			if r.spanFile, err = tr.write(o.spans, name); err != nil {
				return fmt.Errorf("write spans: %w", err)
			}
		}
	}
	return r.print(stdout)
}

// timeSetup runs the workload's set-up from the same heap state as a
// cell, freed memory returned to the operating system, and returns its
// host time.
func timeSetup(w workload, seed int64, l *lane) (float64, setupInfo, error) {
	debug.FreeOSMemory()
	l.begin("perfbench.setup")
	t0 := time.Now()
	info, err := w.setup(seed, l)
	d := time.Since(t0).Seconds()
	l.end()
	l.flush()
	return d, info, err
}

// sameSig fails when two runs on the same graph differ in any virtual
// time or count: the event engine is deterministic.
func sameSig(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("determinism: %d virtual times and counts, first run had %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("determinism: value %d is %v, first run had %v", i, b[i], a[i])
		}
	}
	return nil
}

// peakRSSMiB reads the process's resident-memory high-water mark.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
}

type report struct {
	opts   options
	setupS []float64
	genS   []float64
	info   setupInfo
	cells  []cellResult
	// graphs holds each executed graph's first result. Virtual times
	// and counts are medians over them, so they do not depend on how
	// many cells fit in the run.
	graphs   []*graphResult
	chk      *checker
	rssMiB   float64
	barrierS float64
	spans    int64
	spanFile string
}

// ofCells returns the median over cells of f.
func (r *report) ofCells(f func(c *cellResult) float64) float64 {
	xs := make([]float64, len(r.cells))
	for i := range r.cells {
		xs[i] = f(&r.cells[i])
	}
	return median(xs)
}

// ofGraphs returns the median over the executed graphs of f.
func (r *report) ofGraphs(f func(g *graphResult) float64) float64 {
	xs := make([]float64, len(r.graphs))
	for i, g := range r.graphs {
		xs[i] = f(g)
	}
	return median(xs)
}

func (r *report) walls(traced bool) []float64 {
	var xs []float64
	for _, c := range r.cells {
		if c.traced == traced {
			xs = append(xs, c.wall)
		}
	}
	return xs
}

// vtUS is the median over graphs of algorithm a's median trial, in µs.
func (r *report) vtUS(a int) float64 {
	return r.ofGraphs(func(g *graphResult) float64 { return median(g.algos[a].vt) }) * 1e6
}

// endToEnd lists the metrics a user of the simulator sees.
func (r *report) endToEnd() []metric {
	return []metric{
		{"setup_s", "s", median(r.setupS)},
		{"cell_s", "s", median(r.walls(false))},
		{"vt_naive_us", "us", r.vtUS(algoNaive)},
		{"vt_dh_us", "us", r.vtUS(algoDH)},
		{"vt_cn_us", "us", r.vtUS(algoCN)},
		{"peak_rss_mb", "MiB", r.rssMiB},
		{"plans_per_s", "1/s", r.ofCells(func(c *cellResult) float64 { return c.plan.perS })},
		{"plan_p50_us", "us", r.ofCells(func(c *cellResult) float64 { return c.plan.p50 }) * 1e6},
		{"plan_p99_us", "us", r.ofCells(func(c *cellResult) float64 { return c.plan.p99 }) * 1e6},
	}
}

// layers are the span layers whose self time is reported.
var layers = []string{"collective", "mpirt", "pattern", "perfbench", "perfmodel", "plancache", "planverify"}

// perLayer lists the metrics of single layers. Every workload reports
// every name; a layer call the workload does not make reads 0.
func (r *report) perLayer() []metric {
	cell, graph := r.ofCells, r.ofGraphs
	ms := []metric{
		{"vgraph.gen_s", "s", median(r.genS)},
		{"vgraph.edges", "count", float64(r.info.edges)},
		{"pattern.build_s", "s", cell(func(c *cellResult) float64 { return c.dhBuildS })},
		{"pattern.agent_success", "ratio", graph(func(g *graphResult) float64 { return g.agentSuccess })},
		{"pattern.max_buf_sources", "count", graph(func(g *graphResult) float64 { return float64(g.maxBuf) })},
		{"pattern.negotiate_s", "s", cell(func(c *cellResult) float64 { return c.negS })},
		{"pattern.negotiate_vt_us", "us", graph(func(g *graphResult) float64 { return g.negVT }) * 1e6},
		{"pattern.negotiate_msgs", "count", graph(func(g *graphResult) float64 { return float64(g.negMsgs) })},
		{"collective.cn_build_s", "s", cell(func(c *cellResult) float64 { return c.cnBuildS })},
		{"collective.cn_k", "count", graph(func(g *graphResult) float64 { return float64(g.algos[algoCN].k) })},
		{"mpirt.barrier_s", "s", r.barrierS},
	}
	for a, name := range algoNames {
		a := a
		alg := func(f func(a *algoResult) float64) float64 {
			return graph(func(g *graphResult) float64 { return f(&g.algos[a]) })
		}
		ms = append(ms,
			metric{"mpirt.run_s." + name, "s", cell(func(c *cellResult) float64 { return c.runS[a] })},
			metric{"mpirt.ns_per_msg." + name, "ns", cell(func(c *cellResult) float64 {
				if c.simMsgs[a] == 0 {
					return 0
				}
				return c.runS[a] * 1e9 / float64(c.simMsgs[a])
			})},
			metric{"mpirt.msgs." + name, "count", alg(func(a *algoResult) float64 { return float64(a.msgs) })},
			metric{"mpirt.bytes." + name, "B", alg(func(a *algoResult) float64 { return float64(a.bytes) })},
			metric{"mpirt.off_socket_msgs." + name, "count", alg(func(a *algoResult) float64 { return float64(a.offSocket) })},
			metric{"mpirt.max_rank_msgs." + name, "count", alg(func(a *algoResult) float64 { return float64(a.maxRank) })},
			metric{"mpirt.vt_trial_spread." + name, "ratio", alg(func(a *algoResult) float64 { return trialSpread(a.vt) })},
			metric{"netmodel.port_bytes_max_mean." + name, "ratio", alg(func(a *algoResult) float64 { return a.portMM })},
			metric{"netmodel.nic_bytes_max_mean." + name, "ratio", alg(func(a *algoResult) float64 { return a.nicMM })},
			metric{"netmodel.uplink_bytes_max_mean." + name, "ratio", alg(func(a *algoResult) float64 { return a.uplinkMM })},
		)
	}
	speedup := graph(func(g *graphResult) float64 { return g.speedup })
	model := graph(func(g *graphResult) float64 { return g.modelSpeedup })
	var speedupErr float64
	if model > 0 {
		speedupErr = math.Abs(speedup/model - 1)
	}
	walls := r.walls(false)
	sort.Float64s(walls)
	var overhead float64
	if traced := r.walls(true); len(traced) > 0 {
		overhead = median(traced) - median(walls)
	}
	ms = append(ms,
		metric{"plancache.hits", "count", cell(func(c *cellResult) float64 { return float64(c.cache.Hits) })},
		metric{"plancache.misses", "count", cell(func(c *cellResult) float64 { return float64(c.cache.Misses) })},
		metric{"plancache.coalesced", "count", cell(func(c *cellResult) float64 { return float64(c.cache.Coalesced) })},
		metric{"plancache.overloads", "count", cell(func(c *cellResult) float64 { return float64(c.cache.Overloads) })},
		metric{"plancache.evictions", "count", cell(func(c *cellResult) float64 { return float64(c.cache.Evictions) })},
		metric{"plancache.hit_rate", "ratio", cell(func(c *cellResult) float64 { return c.cache.HitRate() })},
		metric{"plancache.hit_p50_ns", "ns", cell(func(c *cellResult) float64 { return c.hitP50NS })},
		metric{"plancache.build_s", "s", cell(func(c *cellResult) float64 { return c.buildS })},
		metric{"perfmodel.dh_speedup", "ratio", model},
		metric{"dh_speedup", "ratio", speedup},
		metric{"perfmodel.speedup_err", "ratio", speedupErr},
		metric{"fail_ratio", "ratio", float64(r.chk.failed) / float64(r.chk.attempted)},
		metric{"cell.samples", "count", float64(len(walls))},
		metric{"cell.tail_s", "s", nearestRank(walls, tailQuantile(len(walls)))},
		metric{"trace.overhead_s", "s", overhead},
		metric{"trace.spans", "count", float64(r.spans)},
	)
	for _, layer := range layers {
		layer := layer
		var xs []float64
		for _, c := range r.cells {
			if c.traced {
				xs = append(xs, c.self[layer])
			}
		}
		ms = append(ms, metric{"self_s." + layer, "s", median(xs)})
	}
	return ms
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes every metric as a line, then the JSON result as the
// last line: the end-to-end metrics, or with tracing the per-layer
// ones.
func (r *report) print(out io.Writer) error {
	o := r.opts
	fmt.Fprintf(out, "workload %s  seed %d  engine %s  trace %v  set-ups %d  cells %d\n",
		o.workload, o.seed, engine, o.trace, len(r.setupS), len(r.cells))
	for _, n := range r.chk.notes {
		fmt.Fprintf(out, "FAILED: %s\n", n)
	}
	e2e, pl := r.endToEnd(), r.perLayer()
	for _, ms := range [][]metric{e2e, pl} {
		for _, m := range ms {
			fmt.Fprintf(out, "  %-36s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
	if r.spanFile != "" {
		fmt.Fprintf(out, "spans written to %s\n", r.spanFile)
	}
	sel := e2e
	if o.trace {
		sel = pl
	}
	res := result{Correct: r.chk.failed == 0, Attempted: r.chk.attempted, Failed: r.chk.failed,
		Metrics: make(map[string]jsonMetric, len(sel))}
	for _, m := range sel {
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
