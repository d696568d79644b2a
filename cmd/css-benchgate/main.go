// Command css-benchgate guards the publish path against regressions.
// It reads `go test -bench -benchmem` output on stdin and gates two
// kinds of budgets named in a committed baseline file:
//
//   - allocation budgets (the default): allocs/op for the listed
//     benchmarks must not exceed the baseline beyond the tolerance.
//     Allocation counts — unlike wall-clock ns/op — are deterministic
//     for a fixed code path, so the gate is stable across machines and
//     load, and a single short `-benchtime 2000x` run is enough.
//   - rate pairs (-rates): the `pub/s` custom metric of one benchmark
//     compared against another benchmark FROM THE SAME RUN. Because
//     both sides share the machine and the load, the ratio is stable
//     where absolute rates are not: `withinPct` bounds a slowdown
//     (e.g. the 1-shard sharding tax vs the unsharded saturation row)
//     and `minRatio` demands a speedup (e.g. 4-shard scale-out vs
//     1-shard). Pairs with `minCPU` are skipped on smaller machines —
//     scale-out cannot manifest without cores to scale onto.
//
// Usage:
//
//	go test -run '^$' -bench 'E1_PublishRoute' -benchtime 2000x -benchmem . \
//	    | css-benchgate -baseline BENCH_baseline.json
//
//	go test -run '^$' -bench 'E1_Saturation|E1_ShardedSaturation' . \
//	    | css-benchgate -baseline BENCH_baseline.json -rates
//
// Pass -update to rewrite the allocation baseline from the measured run
// instead of gating (after an intentional improvement or regression,
// reviewed in the diff like any other change). Rate pairs are relative,
// so they have no measured baseline to update — edit them in the JSON.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// baseline is the committed benchmark budget.
type baseline struct {
	// TolerancePct is the allowed relative regression in percent.
	TolerancePct float64 `json:"tolerancePct"`
	// AllocsPerOp maps benchmark name (no -N GOMAXPROCS suffix) to the
	// recorded allocs/op.
	AllocsPerOp map[string]int64 `json:"allocsPerOp"`
	// RatePairs are same-run pub/s comparisons gated by -rates.
	RatePairs []ratePair `json:"ratePairs,omitempty"`
}

// ratePair compares the pub/s metric of two benchmarks from one run.
type ratePair struct {
	// Name and Against are benchmark names as printed (sub-benchmark
	// path included, no GOMAXPROCS suffix).
	Name    string `json:"name"`
	Against string `json:"against"`
	// WithinPct, when set, requires Name's rate to be no more than this
	// many percent below Against's (faster is never a failure).
	WithinPct float64 `json:"withinPct,omitempty"`
	// MinRatio, when set, requires Name's rate ≥ MinRatio × Against's.
	MinRatio float64 `json:"minRatio,omitempty"`
	// MinCPU skips the pair when the machine has fewer logical CPUs —
	// scale-out ratios are meaningless on a box with nothing to scale
	// onto.
	MinCPU int `json:"minCPU,omitempty"`
}

// procSuffix is the -GOMAXPROCS suffix `go test` appends to names.
var procSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "committed benchmark baseline")
	update := flag.Bool("update", false, "rewrite the allocation baseline from this run instead of gating")
	rates := flag.Bool("rates", false, "gate the baseline's ratePairs (same-run pub/s comparisons) instead of allocs/op")
	flag.Parse()

	allocs, pubRate, err := readRun(os.Stdin)
	if err != nil {
		fatalf("read stdin: %v", err)
	}

	if *update {
		if len(allocs) == 0 {
			fatalf("no -benchmem result lines on stdin (run with -benchmem)")
		}
		writeBaseline(*baselinePath, allocs)
		return
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatalf("read baseline: %v (run with -update to create it)", err)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fatalf("parse baseline %s: %v", *baselinePath, err)
	}
	if base.TolerancePct <= 0 {
		base.TolerancePct = 5
	}

	if *rates {
		if gateRates(base.RatePairs, pubRate) {
			os.Exit(1)
		}
		return
	}
	if len(allocs) == 0 {
		fatalf("no -benchmem result lines on stdin (run with -benchmem)")
	}
	if gateAllocs(base, allocs) {
		os.Exit(1)
	}
}

// readRun parses `go test -bench` output. A result line is the name,
// the iteration count, then (value, unit) pairs: ns/op, any custom
// metrics a benchmark reports (Go prints them before B/op), B/op and
// allocs/op. Across -count samples it keeps each benchmark's worst:
// the highest allocs/op and the lowest pub/s.
func readRun(r io.Reader) (allocs map[string]int64, pubRate map[string]float64, err error) {
	allocs, pubRate = map[string]int64{}, map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := procSuffix.ReplaceAllString(f[0], "")
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				// Not a result line, or a log line interleaved into one
				// (test binaries share stdout with their loggers).
				break
			}
			switch f[i+1] {
			case "allocs/op":
				if prev, ok := allocs[name]; !ok || int64(v) > prev {
					allocs[name] = int64(v)
				}
			case "pub/s":
				if prev, ok := pubRate[name]; !ok || v < prev {
					pubRate[name] = v
				}
			}
		}
	}
	return allocs, pubRate, sc.Err()
}

// gateAllocs checks the allocation budgets; true means failure.
func gateAllocs(base baseline, measured map[string]int64) bool {
	names := make([]string, 0, len(base.AllocsPerOp))
	for name := range base.AllocsPerOp {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := false
	for _, name := range names {
		want := base.AllocsPerOp[name]
		got, ok := measured[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "FAIL %s: in baseline but absent from the measured run\n", name)
			failed = true
			continue
		}
		limit := float64(want) * (1 + base.TolerancePct/100)
		switch {
		case float64(got) > limit:
			fmt.Fprintf(os.Stderr, "FAIL %s: %d allocs/op, baseline %d (+%.1f%% > %.0f%% tolerance)\n",
				name, got, want, 100*float64(got-want)/float64(want), base.TolerancePct)
			failed = true
		case got < want:
			fmt.Printf("ok   %s: %d allocs/op (baseline %d — improved; consider -update)\n", name, got, want)
		default:
			fmt.Printf("ok   %s: %d allocs/op (baseline %d)\n", name, got, want)
		}
	}
	return failed
}

// gateRates checks the same-run pub/s pairs; true means failure.
func gateRates(pairs []ratePair, rates map[string]float64) bool {
	if len(pairs) == 0 {
		fatalf("-rates set but the baseline has no ratePairs")
	}
	failed := false
	for _, p := range pairs {
		if p.MinCPU > 0 && runtime.NumCPU() < p.MinCPU {
			fmt.Printf("skip %s vs %s: needs %d CPUs, machine has %d\n",
				p.Name, p.Against, p.MinCPU, runtime.NumCPU())
			continue
		}
		got, ok := rates[p.Name]
		ref, rok := rates[p.Against]
		if !ok || !rok {
			for want, have := range map[string]bool{p.Name: ok, p.Against: rok} {
				if !have {
					fmt.Fprintf(os.Stderr, "FAIL %s: no pub/s metric in the measured run\n", want)
				}
			}
			failed = true
			continue
		}
		switch {
		case p.WithinPct > 0:
			floor := ref * (1 - p.WithinPct/100)
			if got < floor {
				fmt.Fprintf(os.Stderr, "FAIL %s: %.0f pub/s is %.1f%% below %s (%.0f pub/s), tolerance %.0f%%\n",
					p.Name, got, 100*(ref-got)/ref, p.Against, ref, p.WithinPct)
				failed = true
			} else {
				fmt.Printf("ok   %s: %.0f pub/s within %.0f%% of %s (%.0f pub/s)\n",
					p.Name, got, p.WithinPct, p.Against, ref)
			}
		case p.MinRatio > 0:
			if got < ref*p.MinRatio {
				fmt.Fprintf(os.Stderr, "FAIL %s: %.0f pub/s is only %.2fx %s (%.0f pub/s), want ≥%.1fx\n",
					p.Name, got, got/ref, p.Against, ref, p.MinRatio)
				failed = true
			} else {
				fmt.Printf("ok   %s: %.0f pub/s = %.2fx %s (%.0f pub/s, want ≥%.1fx)\n",
					p.Name, got, got/ref, p.Against, ref, p.MinRatio)
			}
		default:
			fatalf("ratePair %s vs %s sets neither withinPct nor minRatio", p.Name, p.Against)
		}
	}
	return failed
}

func writeBaseline(path string, measured map[string]int64) {
	// Preserve committed rate pairs across -update rewrites.
	out := baseline{TolerancePct: 5, AllocsPerOp: measured}
	if raw, err := os.ReadFile(path); err == nil {
		var prev baseline
		if json.Unmarshal(raw, &prev) == nil {
			out.RatePairs = prev.RatePairs
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fatalf("encode baseline: %v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatalf("write baseline: %v", err)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(measured))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "css-benchgate: "+format+"\n", args...)
	os.Exit(1)
}
