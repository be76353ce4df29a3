package harness

import (
	"math"
	"strings"
	"testing"
	"time"

	"nbrallgather/internal/plancache"
	"nbrallgather/internal/topology"
)

func smallPlanLoad() PlanLoadConfig {
	return PlanLoadConfig{
		Neighborhoods: 30,
		Requests:      3000,
		Workers:       4,
		Zipf:          1.2,
		Seed:          7,
		GraphRanks:    24,
		Density:       0.2,
		Cluster:       topology.ForRanks(24, 4),
		Algos:         []string{"dh", "cn"},
	}
}

func TestMeasurePlanThroughput(t *testing.T) {
	res, err := MeasurePlanThroughput(smallPlanLoad())
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 3000 {
		t.Fatalf("completed %d requests, want 3000", res.Requests)
	}
	if res.PlansPerSec <= 0 {
		t.Fatalf("plans/sec = %g", res.PlansPerSec)
	}
	// 3000 Zipf(1.2) requests over 60 distinct keys: the steady state is
	// overwhelmingly warm.
	if res.HitRate < 0.5 {
		t.Fatalf("hit rate %.2f, want ≥ 0.5 on a warm Zipf stream", res.HitRate)
	}
	if res.Cache.Misses == 0 || res.Cache.Hits == 0 {
		t.Fatalf("cache stats %+v, want both builds and hits", res.Cache)
	}
	if res.P50 > res.P99 || res.P99 > res.P999 {
		t.Fatalf("percentiles out of order: p50 %v p99 %v p999 %v", res.P50, res.P99, res.P999)
	}
	if s := res.String(); !strings.Contains(s, "plans/s") {
		t.Fatalf("String() = %q", s)
	}
}

func TestMeasurePlanThroughputNoCache(t *testing.T) {
	cfg := smallPlanLoad()
	cfg.Requests = 200
	cfg.NoCache = true
	res, err := MeasurePlanThroughput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.HitRate != 0 || res.CoalescingFactor != 1 {
		t.Fatalf("no-cache run reports hit rate %.2f coalescing %.2f", res.HitRate, res.CoalescingFactor)
	}
	if res.Cache.Inserts != 0 {
		t.Fatalf("no-cache run touched a cache: %+v", res.Cache)
	}
}

func TestMeasurePlanThroughputVerifyOnInsert(t *testing.T) {
	cfg := smallPlanLoad()
	cfg.Requests = 500
	cfg.VerifyOnInsert = true
	res, err := MeasurePlanThroughput(cfg)
	if err != nil {
		t.Fatalf("verified run failed: %v", err)
	}
	if res.Cache.Inserts == 0 {
		t.Fatal("nothing was inserted (and so nothing verified)")
	}
}

// TestMeasurePlanThroughputShedsOverloads forces admission-control
// rejections (one planner, one queue slot, sixteen workers, and builds
// that sleep so the other workers arrive while one runs) and checks
// that rejected requests are shed: counted in Requests and ShedRate,
// left out of the throughput and the latency percentiles.
func TestMeasurePlanThroughputShedsOverloads(t *testing.T) {
	cfg := smallPlanLoad()
	cfg.Requests = 320
	cfg.Workers = 16
	cfg.Planners = 1
	cfg.MaxQueue = 1
	cfg.wrapBuild = func(build plancache.Builder) plancache.Builder {
		return func() (any, int64, error) {
			time.Sleep(2 * time.Millisecond)
			return build()
		}
	}
	res, err := MeasurePlanThroughput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overloads == 0 {
		t.Fatal("no request was rejected: the overload was not forced")
	}
	if res.Overloads != res.Cache.Overloads {
		t.Fatalf("workers saw %d overloads, cache counted %d", res.Overloads, res.Cache.Overloads)
	}
	if res.Requests != cfg.Requests {
		t.Fatalf("Requests = %d, want %d fired", res.Requests, cfg.Requests)
	}
	if want := float64(res.Overloads) / float64(res.Requests); res.ShedRate != want {
		t.Fatalf("ShedRate = %g, want %g", res.ShedRate, want)
	}
	served := float64(res.Requests) - float64(res.Overloads)
	if got := res.PlansPerSec * res.Wall.Seconds(); math.Abs(got-served) > 1e-6*served {
		t.Fatalf("PlansPerSec × Wall = %g, want the %g served requests", got, served)
	}
	if s := res.String(); !strings.Contains(s, "shed") {
		t.Fatalf("String() = %q, want the shed rate", s)
	}
}

func TestMeasurePlanThroughputRejectsShallowZipf(t *testing.T) {
	cfg := smallPlanLoad()
	cfg.Zipf = 1.0
	if _, err := MeasurePlanThroughput(cfg); err == nil {
		t.Fatal("Zipf s ≤ 1 accepted")
	}
}

func TestMeasureCoalescing(t *testing.T) {
	const herd = 16
	res, err := MeasureCoalescing(herd)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requesters != herd {
		t.Fatalf("requesters = %d", res.Requesters)
	}
	if res.Builds != 1 {
		t.Fatalf("%d concurrent identical requests ran %d builds, want 1", herd, res.Builds)
	}
	if res.Coalesced != herd-1 {
		t.Fatalf("coalesced = %d, want %d", res.Coalesced, herd-1)
	}
}
