// css-bench prints the non-timing characterization tables of
// EXPERIMENTS.md. The paper (an industrial experience report) publishes
// no quantitative tables, so each of its figures and prose claims is
// mapped to an experiment (see DESIGN.md §5). The tables here count
// what a claim is about: sensitive bytes exposed, fields delivered,
// integration artifacts, retrieval outcomes, detected care gaps and
// report rows. Every timing number comes from the Benchmark functions
// in bench_test.go (`make bench`).
//
// Usage:
//
//	css-bench [-exp id[,id...]|all]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
)

// experiment is one runnable table generator.
type experiment struct {
	id    string
	title string
	run   func()
}

var experiments = []experiment{
	{"e4", "§1 claim — minimal usage: two-phase vs full-publication baselines", runE4},
	{"e7", "§1 claim — event-level policies vs all-or-nothing and over-constraining", runE7},
	{"e9", "§1 claim — onboarding cost: hub vs point-to-point", runE9},
	{"e10", "§4 — temporal decoupling: detail retrieval months later, source offline", runE10},
	{"e13", "ablation D3 — details at producer vs controller-side cache", runE13},
	{"e15", "§1 — process monitoring over the notification stream", runE15},
	{"e16", "§2 — accountability aggregates for the governing body", runE16},
}

func main() {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	known := strings.Join(ids, ",")
	exp := flag.String("exp", "all", "comma-separated experiment ids ("+known+") or 'all'")
	flag.Parse()

	want := strings.Split(*exp, ",")
	matched := 0
	for _, e := range experiments {
		if *exp != "all" && !slices.Contains(want, e.id) {
			continue
		}
		matched++
		fmt.Printf("=== %s: %s ===\n", strings.ToUpper(e.id), e.title)
		e.run()
		fmt.Println()
	}
	if matched == 0 {
		log.Printf("no experiment matches %q; known: %s, all", *exp, known)
		os.Exit(2)
	}
}
