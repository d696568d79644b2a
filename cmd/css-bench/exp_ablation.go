package main

import (
	"fmt"
	"os"

	"repro/internal/baseline"
	"repro/internal/event"
)

// runE13 ablates design decision D3 (details stay at the producer's
// gateway) against the rejected alternative, a controller-side detail
// cache: the sensitive bytes the central node holds under each design.
// The retrieval cost of each design is BenchmarkE13_GatewayVsCache.
func runE13() {
	const n = 5000
	cache := baseline.NewWarehouse()
	var centralBytes uint64
	for i := 0; i < n; i++ {
		centralBytes += uint64(cache.Load(event.NewDetail("c.x", event.SourceID(fmt.Sprintf("s-%06d", i)), "hospital").
			Set("patient-id", fmt.Sprintf("PRS-%05d", i)).
			Set("diagnosis", "chronic condition with a long free-text description").
			Set("therapy", "complex therapy plan 0123456789")))
	}

	tbl := newTable("design", "sensitive bytes at controller", "legal under dup. prohibition")
	tbl.Row("D3: details at the producer's gateway", 0, true)
	tbl.Row("ablation: controller cache", centralBytes, false)
	tbl.Write(os.Stdout)
	fmt.Printf("(corpus: %d details)\n", n)
	fmt.Println("shape: the central cache duplicates every sensitive byte outside the owner's")
	fmt.Println("control — prohibited by the regulations the paper cites; under D3 the")
	fmt.Println("controller holds none.")
}
