package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/event"
)

// TestSeededPlan: the same seed yields a byte-identical operation
// sequence, another seed a different one.
func TestSeededPlan(t *testing.T) {
	for _, s := range specs {
		s.preload = 300
		render := func(seed int64) []byte {
			var b bytes.Buffer
			makePlan(s, seed, 200e6, 100e6).writeTo(&b)
			return b.Bytes()
		}
		a, b, c := render(7), render(7), render(8)
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 rendered two different operation sequences", s.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 rendered the same operation sequence", s.name)
		}
	}
}

// TestSmoke runs every workload for a moment, untraced and traced, on a
// small history: every named metric is emitted with its unit and the
// output checks pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a controller per workload")
	}
	for _, s := range specs {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: s.name, seed: 3, seconds: 0.5, trace: traced, root: t.TempDir(), preload: 1500}
			var log bytes.Buffer
			res, err := run(cfg, &log)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", s.name, traced, err)
			}
			// A moment-long run on a busy machine may see its generator
			// stall; the smoke test asks only that the outputs check out.
			if !res.checked || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: checked=%v attempted=%d failed=%d\n%s", s.name, traced, res.checked, res.Attempted, res.Failed, log.String())
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", s.name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", s.name, traced, d.name, m, d.unit)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", s.name, d.name, res.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the workloads and
// metrics the command reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) == 0 {
		t.Error("BENCHMARK.json lists no workloads")
	}
	for i := range b.Workloads {
		if _, ok := specByName(b.Workloads[i].Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is unknown", b.Workloads[i].Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// writeTo renders the plan's operation sequence in a canonical text form,
// which the seeded-generation test compares byte for byte.
func (p *plan) writeTo(w io.Writer) {
	for _, n := range p.preN {
		fmt.Fprintf(w, "pre %s %s %s %s\n", n.SourceID, n.Class, n.PersonID, n.OccurredAt.Format(time.RFC3339))
	}
	for i, d := range p.preD {
		writeDetail(w, i, d)
	}
	for _, part := range [][]*op{p.warm, p.open, p.closed} {
		for _, o := range part {
			fmt.Fprintf(w, "%s %d %s %d %s %s %s %d %d", o.kind, o.due, o.trace, o.ref,
				o.requester, o.purpose, o.person, o.from.Unix(), o.to.Unix())
			if o.follow != nil {
				fmt.Fprintf(w, " follows %s", o.follow.trace)
			}
			if o.n != nil {
				fmt.Fprintf(w, " %s %s %s %s", o.n.SourceID, o.n.Class, o.n.PersonID, o.n.Summary)
			}
			fmt.Fprintln(w)
			if o.d != nil {
				writeDetail(w, -1, o.d)
			}
		}
	}
}

func writeDetail(w io.Writer, i int, d *event.Detail) {
	names := d.FieldNames()
	sort.Slice(names, func(a, b int) bool { return names[a] < names[b] })
	fmt.Fprint(w, "detail ", strconv.Itoa(i), " ", d.SourceID)
	for _, f := range names {
		fmt.Fprintf(w, " %s=%q", f, d.Fields[f])
	}
	fmt.Fprintln(w)
}
