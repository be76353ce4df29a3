package main

import (
	"fmt"
	"time"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/planverify"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

const (
	algoNaive = iota
	algoDH
	algoCN
	nAlgos
)

var algoNames = [nAlgos]string{"naive", "dh", "cn"}

// engine is the execution engine of every simulated run. It is set
// explicitly so the NBR_MPIRT_ENGINE variable cannot change results;
// the threaded engine's virtual time depends on host scheduling.
const engine = mpirt.EngineEvent

// checker counts the operations a run attempts and the ones that fail:
// errored or rejected requests and runs, and failed output checks.
type checker struct {
	attempted, failed int64
	notes             []string
}

// op records one attempted operation and reports whether it succeeded.
func (c *checker) op(err error) bool {
	if err == nil {
		c.add(1, 0, nil)
		return true
	}
	c.add(1, 1, err)
	return false
}

// add records attempted operations of which failed failed; err, when
// not nil, describes one of the failures.
func (c *checker) add(attempted, failed int64, err error) {
	c.attempted += attempted
	c.failed += failed
	if err != nil && len(c.notes) < 10 {
		c.notes = append(c.notes, err.Error())
	}
}

// executor runs collectives over one graph with the workload's
// payloads and checks what they deliver. Buffers are allocated at
// set-up, so a run allocates none.
type executor struct {
	c       topology.Cluster
	g       *vgraph.Graph
	msgSize int
	phantom bool
	trials  int
	// counts holds msgSize per rank, the planverify.Extract input.
	counts []int
	// sbufs[r] holds rank r's payload, byte(r+i); rbufs[r] its receive
	// buffer. Both are nil for phantom payloads.
	sbufs, rbufs [][]byte
}

func newExecutor(c topology.Cluster, g *vgraph.Graph, msgSize int, phantom bool, trials int) *executor {
	n := g.N()
	e := &executor{c: c, g: g, msgSize: msgSize, phantom: phantom, trials: trials,
		counts: make([]int, n), sbufs: make([][]byte, n), rbufs: make([][]byte, n)}
	for r := range e.counts {
		e.counts[r] = msgSize
	}
	if phantom {
		return e
	}
	for r := 0; r < n; r++ {
		e.sbufs[r] = make([]byte, msgSize)
		for i := range e.sbufs[r] {
			e.sbufs[r][i] = byte(r + i)
		}
		e.rbufs[r] = make([]byte, g.InDegree(r)*msgSize)
	}
	return e
}

// execResult is one mpirt.Run of a collective over the workload's
// trials.
type execResult struct {
	// vt is each trial's CollectiveTime in seconds.
	vt   []float64
	rep  *mpirt.Report
	wall float64
}

// run executes op for the workload's trials in one mpirt.Run and, for
// real payloads, checks every receive buffer. ok is false when the run
// errored or a check failed.
func (e *executor) run(l *lane, chk *checker, algo string, op collective.Op) (res execResult, ok bool) {
	for _, rb := range e.rbufs {
		clear(rb)
	}
	vt := make([]float64, e.trials)
	l.begin("mpirt.run." + algo)
	t0 := time.Now()
	rep, err := mpirt.Run(e.config(), func(p *mpirt.Proc) {
		r := p.Rank()
		for tr := range vt {
			p.SyncResetTime()
			op.Run(p, e.sbufs[r], e.msgSize, e.rbufs[r])
			t := p.CollectiveTime()
			if r == 0 {
				vt[tr] = t
			}
		}
	})
	wall := time.Since(t0).Seconds()
	l.end()
	if !chk.op(wrap(err, "run %s", op.Name())) {
		return execResult{}, false
	}
	if !e.phantom {
		l.begin("perfbench.check_rbuf")
		err = e.checkRbufs()
		l.end()
		if !chk.op(wrap(err, "%s output", op.Name())) {
			return execResult{}, false
		}
	}
	return execResult{vt: vt, rep: rep, wall: wall}, true
}

func (e *executor) config() mpirt.Config {
	return mpirt.Config{Cluster: e.c, Ranks: e.g.N(), Phantom: e.phantom, Engine: engine}
}

// checkRbufs compares every receive buffer with the senders' fill: the
// payload of in-neighbor u (in ascending order) is byte(u+i).
func (e *executor) checkRbufs() error {
	m := e.msgSize
	for r, rb := range e.rbufs {
		for j, u := range e.g.In(r) {
			for i := 0; i < m; i++ {
				if rb[j*m+i] != byte(u+i) {
					return fmt.Errorf("rank %d: byte %d of the block from rank %d is %d, want %d",
						r, i, u, rb[j*m+i], byte(u+i))
				}
			}
		}
	}
	return nil
}

// checkLoad requires the simulated message and byte totals to equal
// the static load of the algorithm's plan, once per trial.
func (e *executor) checkLoad(l *lane, algo string, rep *mpirt.Report) error {
	l.begin("planverify.extract")
	s, err := planverify.Extract(algo, e.g, e.c, e.counts, nil, planverify.Params{})
	l.end()
	if err != nil {
		return fmt.Errorf("extract %s: %w", algo, err)
	}
	ld := s.Load()
	t := int64(e.trials)
	if rep.Msgs() != t*ld.Msgs() || rep.Bytes() != t*ld.Bytes() {
		return fmt.Errorf("%s: simulated %d msgs / %d bytes over %d trials, plan load %d / %d per trial",
			algo, rep.Msgs(), rep.Bytes(), t, ld.Msgs(), ld.Bytes())
	}
	return nil
}

// barrier times a barrier-only mpirt.Run with the collective's trial
// loop: the runtime's fixed cost at this rank count.
func (e *executor) barrier() (float64, error) {
	t0 := time.Now()
	_, err := mpirt.Run(e.config(), func(p *mpirt.Proc) {
		for tr := 0; tr < e.trials; tr++ {
			p.SyncResetTime()
			p.CollectiveTime()
		}
	})
	return time.Since(t0).Seconds(), err
}

// algoResult is one algorithm's collective on one graph. For CN, whose
// variants all run, it is the variant with the lowest median virtual
// time.
type algoResult struct {
	// vt is the per-trial CollectiveTime, seconds.
	vt []float64
	// k is the CN variant's group size.
	k int
	// Per collective (one trial).
	msgs, bytes, offSocket, maxRank int64
	// Max ÷ mean byte load over send ports, node NICs and group
	// uplinks.
	portMM, nicMM, uplinkMM float64
}

// graphResult is what a cell measured on one graph of the workload.
type graphResult struct {
	// graph indexes the workload's graph population.
	graph int
	algos [nAlgos]algoResult
	// Quality of the DH pattern.
	agentSuccess float64
	maxBuf       int
	// Virtual time and messages of the distributed DH negotiation.
	negVT   float64
	negMsgs int64
	// Measured naive ÷ DH virtual time, and the Section V model's
	// prediction for ER graphs (0 for other graphs).
	speedup, modelSpeedup float64
	// sig lists every virtual time and count measured on the graph;
	// every cell on the same graph must reproduce it exactly.
	sig []float64
}

// variant is one plan to execute.
type variant struct {
	algo int
	k    int
	op   collective.Op
}

// runAll executes every variant on the executor's graph, checks the
// outputs and, for naive and DH, the traffic against the plan load. It
// adds each run's host time and simulated messages to the cell.
func (e *executor) runAll(l *lane, chk *checker, vs []variant, cell *cellResult, gr *graphResult) {
	for _, v := range vs {
		r, ok := e.run(l, chk, algoNames[v.algo], v.op)
		if !ok {
			continue
		}
		if v.algo != algoCN {
			chk.op(e.checkLoad(l, algoNames[v.algo], r.rep))
		}
		cell.runS[v.algo] += r.wall
		cell.simMsgs[v.algo] += r.rep.Msgs()
		gr.sig = append(gr.sig, r.vt...)
		gr.sig = append(gr.sig, float64(r.rep.Msgs()), float64(r.rep.Bytes()))
		a := &gr.algos[v.algo]
		if a.vt != nil && median(r.vt) >= median(a.vt) {
			continue
		}
		t := int64(len(r.vt))
		*a = algoResult{
			vt: r.vt, k: v.k,
			msgs: r.rep.Msgs() / t, bytes: r.rep.Bytes() / t,
			offSocket: r.rep.OffSocketMsgs() / t, maxRank: r.rep.MaxRankMsgs / t,
			portMM:   planverify.RatioMaxMean(r.rep.RankBytes),
			nicMM:    planverify.RatioMaxMean(r.rep.NICBytes),
			uplinkMM: planverify.RatioMaxMean(r.rep.UplinkBytes),
		}
	}
}

// wrap prefixes err with a description; nil stays nil.
func wrap(err error, format string, args ...any) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), err)
}
