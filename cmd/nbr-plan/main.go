// Command nbr-plan exercises the planner-as-a-service path: a
// synthetic heavy-traffic generator fires plan requests
// Zipf-distributed over thousands of distinct neighborhoods at the
// content-addressed plan cache (internal/plancache) and reports
// served plans/sec, shed rate (admission-control rejections per
// request), hit rate, coalescing factor and p50/p99/p999 latency of
// served requests — cached vs. the negotiate-every-request baseline —
// plus the thundering-herd proof (N concurrent identical requests → 1
// build) and a Zipf-skew hit-rate table. The -json snapshot lands in
// results/BENCH_pr10.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"

	"nbrallgather/internal/harness"
	"nbrallgather/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "nbr-plan: %v\n", err)
		os.Exit(1)
	}
}

// planCell is one traffic run in the JSON snapshot.
type planCell struct {
	Requests    int     `json:"requests"`
	WallS       float64 `json:"wall_s"`
	PlansPerSec float64 `json:"plans_per_sec"`
	HitRate     float64 `json:"hit_rate"`
	Coalescing  float64 `json:"coalescing_factor"`
	P50us       float64 `json:"p50_us"`
	P99us       float64 `json:"p99_us"`
	P999us      float64 `json:"p999_us"`
	Builds      int64   `json:"builds"`
	Evictions   int64   `json:"evictions"`
	Overloads   int64   `json:"overloads"`
	ShedRate    float64 `json:"shed_rate"`
	CacheBytes  int64   `json:"cache_bytes"`
	CacheNumber int     `json:"cache_entries"`
}

type coalesceCell struct {
	Requesters int   `json:"requesters"`
	Builds     int64 `json:"builds"`
	Coalesced  int64 `json:"coalesced"`
}

type zipfCell struct {
	S        float64 `json:"s"`
	HitRate  float64 `json:"hit_rate"`
	PlansPS  float64 `json:"plans_per_sec"`
	ShedRate float64 `json:"shed_rate"`
}

type planDoc struct {
	Schema        string       `json:"schema"`
	Neighborhoods int          `json:"neighborhoods"`
	GraphRanks    int          `json:"graph_ranks"`
	Density       float64      `json:"density"`
	Zipf          float64      `json:"zipf"`
	Workers       int          `json:"workers"`
	Algos         []string     `json:"algos"`
	Seed          int64        `json:"seed"`
	Cached        planCell     `json:"cached"`
	Baseline      planCell     `json:"baseline"`
	Speedup       float64      `json:"speedup"`
	Coalescing    coalesceCell `json:"coalescing"`
	ZipfTable     []zipfCell   `json:"zipf_table,omitempty"`
}

func cell(r harness.PlanLoadResult) planCell {
	return planCell{
		Requests:    r.Requests,
		WallS:       r.Wall.Seconds(),
		PlansPerSec: r.PlansPerSec,
		HitRate:     r.HitRate,
		Coalescing:  r.CoalescingFactor,
		P50us:       float64(r.P50.Nanoseconds()) / 1e3,
		P99us:       float64(r.P99.Nanoseconds()) / 1e3,
		P999us:      float64(r.P999.Nanoseconds()) / 1e3,
		Builds:      r.Cache.Misses,
		Evictions:   r.Cache.Evictions,
		Overloads:   r.Overloads,
		ShedRate:    r.ShedRate,
		CacheBytes:  r.Cache.Bytes,
		CacheNumber: r.Cache.Entries,
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nbr-plan", flag.ContinueOnError)
	fs.SetOutput(out)
	reqs := fs.Int("reqs", 2_000_000, "plan requests fired at the cached service")
	baselineReqs := fs.Int("baseline-reqs", 20_000, "requests for the no-cache baseline (every request negotiates)")
	hoods := fs.Int("neighborhoods", 2000, "distinct neighborhood graphs in the population")
	ranks := fs.Int("ranks", 64, "ranks per neighborhood graph")
	density := fs.Float64("density", 0.12, "Erdős–Rényi density of the neighborhoods")
	workers := fs.Int("workers", 8, "concurrent requesters")
	zipfS := fs.Float64("zipf", 1.1, "Zipf skew exponent s > 1 of neighborhood popularity")
	algos := fs.String("algos", "dh,cn", "comma-separated plan kinds to request")
	msgSize := fs.Int("msg", 1<<10, "payload bytes keyed into the size class")
	cacheMB := fs.Int64("cache-mb", 256, "cache budget in MiB")
	planners := fs.Int("planners", 0, "admission bound on concurrent planners (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "admission bound on queued waiters (0 = 4×planners)")
	verifyOnInsert := fs.Bool("verify-on-insert", false, "run planverify invariants on every first insertion")
	herd := fs.Int("herd", 64, "concurrent identical requests for the coalescing proof")
	zipfTable := fs.String("zipf-sweep", "1.01,1.1,1.5,2.0", "comma-separated Zipf exponents for the hit-rate table (empty disables)")
	zipfReqs := fs.Int("zipf-reqs", 100_000, "requests per Zipf-table cell")
	seed := fs.Int64("seed", 1, "population and request-stream seed")
	jsonPath := fs.String("json", "", "write the machine-readable snapshot to this path")
	assertHit := fs.Float64("assert-hit-rate", 0, "fail unless the cached hit rate reaches this floor")
	assertSpeedup := fs.Float64("assert-speedup", 0, "fail unless cached/baseline plans/sec reaches this floor")
	if err := fs.Parse(args); err != nil {
		return err
	}

	base := harness.PlanLoadConfig{
		Neighborhoods:  *hoods,
		Workers:        *workers,
		Zipf:           *zipfS,
		Seed:           *seed,
		GraphRanks:     *ranks,
		Density:        *density,
		Cluster:        topology.ForRanks(*ranks, 4),
		Algos:          strings.Split(*algos, ","),
		MsgSize:        *msgSize,
		CacheBytes:     *cacheMB << 20,
		Planners:       *planners,
		MaxQueue:       *queue,
		VerifyOnInsert: *verifyOnInsert,
	}
	doc := planDoc{
		Schema:        "nbr-plan/pr10",
		Neighborhoods: *hoods,
		GraphRanks:    *ranks,
		Density:       *density,
		Zipf:          *zipfS,
		Workers:       *workers,
		Algos:         base.Algos,
		Seed:          *seed,
	}

	// Cached service run.
	cfg := base
	cfg.Requests = *reqs
	cached, err := harness.MeasurePlanThroughput(cfg)
	if err != nil {
		return err
	}
	doc.Cached = cell(cached)
	fmt.Fprintf(out, "cached   %s\n", cached)

	// No-cache baseline: every request negotiates from scratch, so it
	// runs at a reduced request count (throughput per request is what
	// the speedup compares).
	cfg = base
	cfg.Requests = *baselineReqs
	cfg.NoCache = true
	cfg.VerifyOnInsert = false
	baseline, err := harness.MeasurePlanThroughput(cfg)
	if err != nil {
		return err
	}
	doc.Baseline = cell(baseline)
	doc.Speedup = cached.PlansPerSec / baseline.PlansPerSec
	fmt.Fprintf(out, "baseline %s\n", baseline)
	fmt.Fprintf(out, "speedup  %.1f× plans/sec (cached vs. negotiate-every-request)\n", doc.Speedup)

	// Coalescing proof: a thundering herd of identical concurrent
	// requests must negotiate exactly once.
	co, err := harness.MeasureCoalescing(*herd)
	if err != nil {
		return err
	}
	doc.Coalescing = coalesceCell{Requesters: co.Requesters, Builds: co.Builds, Coalesced: co.Coalesced}
	fmt.Fprintf(out, "coalesce %d identical concurrent requests → %d build(s), %d coalesced\n",
		co.Requesters, co.Builds, co.Coalesced)
	if co.Builds != 1 {
		return fmt.Errorf("coalescing proof failed: %d concurrent identical requests ran %d builds, want 1",
			co.Requesters, co.Builds)
	}

	// Zipf-skew hit-rate table.
	if *zipfTable != "" {
		tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "zipf s\thit rate\tplans/s\tshed")
		for _, fld := range strings.Split(*zipfTable, ",") {
			s, err := strconv.ParseFloat(strings.TrimSpace(fld), 64)
			if err != nil {
				return fmt.Errorf("bad -zipf-sweep entry %q: %w", fld, err)
			}
			cfg = base
			cfg.Requests = *zipfReqs
			cfg.Zipf = s
			cfg.VerifyOnInsert = false
			r, err := harness.MeasurePlanThroughput(cfg)
			if err != nil {
				return err
			}
			doc.ZipfTable = append(doc.ZipfTable, zipfCell{S: s, HitRate: r.HitRate, PlansPS: r.PlansPerSec, ShedRate: r.ShedRate})
			fmt.Fprintf(tw, "%.2f\t%.1f%%\t%.0f\t%.1f%%\n", s, 100*r.HitRate, r.PlansPerSec, 100*r.ShedRate)
		}
		tw.Flush()
	}

	if *jsonPath != "" {
		if dir := filepath.Dir(*jsonPath); dir != "." && dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *jsonPath)
	}

	if *assertHit > 0 && cached.HitRate < *assertHit {
		return fmt.Errorf("hit rate %.3f below asserted floor %.3f", cached.HitRate, *assertHit)
	}
	if *assertSpeedup > 0 && doc.Speedup < *assertSpeedup {
		return fmt.Errorf("speedup %.1f× below asserted floor %.1f×", doc.Speedup, *assertSpeedup)
	}
	return nil
}
