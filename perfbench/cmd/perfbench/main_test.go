package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/plancache"
)

// declared reads the metric names BENCHMARK.json promises.
func declared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// TestTinyWorkloads runs every workload at tiny scale, untraced and
// traced, and requires a correct result that reports exactly the
// declared metrics with their units, each also printed by name.
func TestTinyWorkloads(t *testing.T) {
	e2e, layer := declared(t)
	for _, w := range []string{"er-small", "moore-large", "plan-zipf"} {
		for _, trace := range []string{"0", "1"} {
			w, trace := w, trace
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				dir := t.TempDir()
				var out strings.Builder
				err := run([]string{"--workload", w, "--seed", "3", "--seconds", "0",
					"--trace", trace, "--scale", "tiny", "--spans", dir}, &out)
				if err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := e2e
				if trace == "1" {
					want = layer
					if v := res.Metrics["fail_ratio"].Value; v != 0 {
						t.Errorf("fail_ratio %v, want 0", v)
					}
					if res.Metrics["trace.spans"].Value < 1 {
						t.Errorf("traced run recorded no spans")
					}
					if fs, _ := filepath.Glob(filepath.Join(dir, "spans-*.jsonl")); len(fs) != 1 {
						t.Errorf("span files %v, want one", fs)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok || m.Unit != unit {
						t.Errorf("metric %s: got %+v, want unit %s", name, m, unit)
					}
					if !strings.Contains(out.String(), " "+name+" ") {
						t.Errorf("metric %s is not printed by name", name)
					}
				}
			})
		}
	}
}

// TestEngineIgnoresEnvironment requires the virtual times to read the
// same whatever NBR_MPIRT_ENGINE says: every run uses the event engine.
func TestEngineIgnoresEnvironment(t *testing.T) {
	vts := func(env string) map[string]float64 {
		t.Setenv(mpirt.EngineEnv, env)
		var out strings.Builder
		if err := run([]string{"--workload", "er-small", "--seed", "5", "--seconds", "0", "--scale", "tiny"}, &out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "engine event") {
			t.Errorf("NBR_MPIRT_ENGINE=%s: output does not record the event engine", env)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		vt := map[string]float64{}
		for _, name := range []string{"vt_naive_us", "vt_dh_us", "vt_cn_us"} {
			vt[name] = res.Metrics[name].Value
		}
		return vt
	}
	event, threaded := vts("event"), vts("threaded")
	for name, v := range event {
		if threaded[name] != v {
			t.Errorf("%s: %v with NBR_MPIRT_ENGINE=threaded, %v with event", name, threaded[name], v)
		}
	}
}

// TestRejectedRequestsAreNotServed overloads a one-planner cache and
// requires rejected requests to count as failed, not as served plans.
func TestRejectedRequestsAreNotServed(t *testing.T) {
	release := make(chan struct{})
	const workers = 4
	loads := make([]planLoad, workers)
	for i := range loads {
		loads[i] = planLoad{
			key:  plancache.Key{Algo: "dh", Param: i},
			algo: "dh",
			build: func() (any, int64, error) {
				<-release
				return "plan", 1, nil
			},
		}
	}
	cache := plancache.New(plancache.Config{MaxPlanners: 1, MaxQueue: 1})
	outs := make([]requestStats, workers)
	done := make(chan struct{})
	start := time.Now()
	for i := range outs {
		go func(i int) {
			outs[i] = drive(cache, loads, []int32{int32(i)}, nil)
			done <- struct{}{}
		}(i)
	}
	// One request builds, one waits for the planner, two are rejected.
	for deadline := time.Now().Add(10 * time.Second); cache.Stats().Overloads < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("cache never overloaded: %+v", cache.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for range outs {
		<-done
	}
	sum := summarize(outs, time.Since(start).Seconds())
	if sum.attempted != 4 || sum.served != 2 || sum.rejected != 2 || len(sum.lat) != 2 {
		t.Fatalf("attempted %d served %d rejected %d latencies %d, want 4 2 2 2",
			sum.attempted, sum.served, sum.rejected, len(sum.lat))
	}
	if got, want := newPlanStats(sum.lat, sum.wall).perS, 2/sum.wall; got != want {
		t.Errorf("plans/s %v, want served/wall %v", got, want)
	}
	chk := &checker{}
	chk.add(sum.attempted, sum.rejected+sum.errored, sum.err)
	if chk.failed != 2 {
		t.Errorf("failed %d, want the 2 rejections", chk.failed)
	}
}

// TestVTIgnoresTrialCount requires vt_* to be the median of the
// per-trial times: on the event engine the first trial differs from
// the rest, so a mean would move with the trial count.
func TestVTIgnoresTrialCount(t *testing.T) {
	vtDH := func(trials ...float64) float64 {
		var g graphResult
		g.algos[algoDH].vt = trials
		r := &report{cells: []cellResult{{}}, graphs: []*graphResult{&g}}
		for _, m := range r.endToEnd() {
			if m.name == "vt_dh_us" {
				return m.value
			}
		}
		t.Fatal("no vt_dh_us metric")
		return 0
	}
	three := vtDH(640e-6, 2997e-6, 2997e-6)
	five := vtDH(640e-6, 2997e-6, 2997e-6, 2997e-6, 2997e-6)
	if three != five {
		t.Errorf("vt_dh_us %v with 3 trials, %v with 5", three, five)
	}
	if math.Abs(three-2997) > 1e-9 {
		t.Errorf("vt_dh_us %v, want the median trial 2997", three)
	}
	if s := trialSpread([]float64{640, 2997, 2997}); s <= 3.6 || s >= 3.7 {
		t.Errorf("trial spread %v, want (2997-640)/640", s)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{0, 0.5}, {1, 0.5}, {12, 0.5}, {20, 0.5}, {40, 0.75}, {1000, 0.99}} {
		if got := tailQuantile(tc.n); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestSameSig(t *testing.T) {
	if err := sameSig([]float64{1, 2}, []float64{1, 2}); err != nil {
		t.Error(err)
	}
	if sameSig([]float64{1, 2}, []float64{1, 3}) == nil || sameSig([]float64{1}, []float64{1, 2}) == nil {
		t.Error("differing cells passed the determinism check")
	}
}
