package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSmoke drives the full CLI at a reduced scale: cached run,
// baseline, coalescing proof and one Zipf cell, with verify-on-insert
// active and the JSON snapshot written and parsed back.
func TestRunSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var buf bytes.Buffer
	err := run([]string{
		"-reqs", "2000", "-baseline-reqs", "200",
		"-neighborhoods", "50", "-ranks", "24", "-density", "0.2",
		"-workers", "4", "-herd", "16",
		"-zipf-sweep", "1.5", "-zipf-reqs", "1000",
		"-verify-on-insert",
		"-json", path,
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"cached", "baseline", "speedup", "coalesce",
		"16 identical concurrent requests → 1 build(s), 15 coalesced",
		"zipf s", "shed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc planDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "nbr-plan/pr10" {
		t.Fatalf("schema = %q", doc.Schema)
	}
	if doc.Cached.Requests != 2000 || doc.Baseline.Requests != 200 {
		t.Fatalf("request counts: cached %d baseline %d", doc.Cached.Requests, doc.Baseline.Requests)
	}
	if want := float64(doc.Cached.Overloads) / float64(doc.Cached.Requests); doc.Cached.ShedRate != want {
		t.Fatalf("cached shed_rate = %g, want overloads/requests = %g", doc.Cached.ShedRate, want)
	}
	if doc.Speedup <= 0 {
		t.Fatalf("speedup = %g", doc.Speedup)
	}
	if doc.Coalescing.Builds != 1 || doc.Coalescing.Coalesced != 15 {
		t.Fatalf("coalescing cell = %+v", doc.Coalescing)
	}
	if len(doc.ZipfTable) != 1 {
		t.Fatalf("zipf table has %d cells, want 1", len(doc.ZipfTable))
	}
}

func TestRunAssertFailures(t *testing.T) {
	common := []string{
		"-reqs", "1000", "-baseline-reqs", "100",
		"-neighborhoods", "30", "-ranks", "24", "-density", "0.2",
		"-workers", "2", "-herd", "8", "-zipf-sweep", "",
	}
	var buf bytes.Buffer
	if err := run(append(common[:len(common):len(common)], "-assert-hit-rate", "1.01"), &buf); err == nil {
		t.Error("impossible hit-rate floor passed")
	}
	buf.Reset()
	if err := run(append(common[:len(common):len(common)], "-assert-speedup", "1e12"), &buf); err == nil {
		t.Error("impossible speedup floor passed")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-zipf", "0.5", "-reqs", "10", "-baseline-reqs", "10", "-zipf-sweep", ""}, &buf); err == nil {
		t.Error("Zipf ≤ 1 accepted")
	}
	buf.Reset()
	if err := run([]string{"-zipf-sweep", "nope", "-reqs", "100", "-baseline-reqs", "10", "-neighborhoods", "10", "-ranks", "24", "-herd", "4"}, &buf); err == nil {
		t.Error("malformed -zipf-sweep accepted")
	}
}
