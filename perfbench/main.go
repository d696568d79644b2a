// Command perfbench is the CSS platform benchmark. It boots the data
// controller in-process behind a loopback HTTP listener, drives it
// through transport.Client over two connections with one of four
// workloads generated from a seed, checks the outputs, and prints every
// metric with its unit; the last line of standard output is the JSON
// result. With -trace 1 it instead reports per-layer metrics measured
// from outside the program. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// procStart approximates process start for setup_s.
var procStart = time.Now()

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // build directory inside the checkout; data dirs and spans go here
	// preload overrides the workload's history size (0 keeps it); the
	// smoke test shrinks it.
	preload int
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// checked reports whether every output check passed; Correct also
	// requires the open-loop generator to have kept its schedule.
	checked bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	cfg := config{root: ".bench_build"}
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds (open loop, then closed loop)")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	if _, ok := specByName(cfg.workload); !ok || cfg.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <%s> --seed N --seconds S --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return strings.Join(names, "|")
}

// run executes one benchmark run and returns its result; log receives
// the human-readable report.
func run(cfg config, log io.Writer) (*result, error) {
	s, _ := specByName(cfg.workload)
	if cfg.preload > 0 {
		s.preload = cfg.preload
	}
	total := time.Duration(cfg.seconds * float64(time.Second))
	openDur := time.Duration(float64(total) * openShare)
	closedDur := total - openDur
	p := makePlan(s, cfg.seed, openDur, closedDur)
	probeEvents := p.probeEvents()
	planned := time.Since(procStart)
	inputHeap := heapAfterGC()

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	chk := newChecker()
	key := masterKey(cfg.seed)
	runDir, err := filepath.Abs(filepath.Join(cfg.root, "data", fmt.Sprintf("%s-%d", s.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	// Set up s.setups times; the last deployment is the one measured.
	var r *rig
	var run *runner
	var setups []float64
	for i := 0; i < s.setups; i++ {
		start := time.Now()
		if r, err = boot(s, p, key, filepath.Join(runDir, fmt.Sprint(i)), tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		run = &runner{s: s, p: p, rig: r, chk: chk, tr: tr}
		if r.recv != nil {
			r.recv.chk = chk
			r.recv.expectAll(p.warm, p.open, p.closed)
		}
		warm := run.warm(p.warm)
		if n := warm.failed.Load(); n > 0 {
			r.close()
			return nil, fmt.Errorf("warm-up: %d of %d ops failed: %s", n, warm.attempted.Load(), strings.Join(chk.report(), "; "))
		}
		// Every timed phase starts with the preload's writes on disk and
		// a collected heap, not with background writeback and wherever
		// the warm-up left the GC cycle.
		syscall.Sync()
		runtime.GC()
		setups = append(setups, planned.Seconds()+time.Since(start).Seconds())
		if i < s.setups-1 {
			r.close()
			if err := r.remove(); err != nil {
				return nil, err
			}
		}
	}
	defer r.close()

	indexBefore, err := r.ctrl.IndexLen()
	if err != nil {
		return nil, err
	}
	before := takeSnap(r)

	// The timed phases alternate in rounds of one open-loop segment and
	// one closed-loop segment, so that latency and capacity both sample
	// the whole measured window, and the stretches of host contention in
	// it, rather than one part each. The traced run keeps one round: its
	// window observer needs the open loop in one piece.
	n := rounds
	w := &windows{r: r, tr: tr}
	if tr != nil {
		n = 1
		w.start(before)
	}
	open, closed := &phase{}, &phase{}
	pool := p.closed
	var heap float64
	for k := 0; k < n; k++ {
		run.openLoop(open, p.open, openDur*time.Duration(k)/time.Duration(n), openDur*time.Duration(k+1)/time.Duration(n))
		if k == 0 {
			if tr != nil {
				w.finish()
			}
			// The deployment's heap at a fixed point — the end of the
			// first open-loop segment — net of the benchmark's own
			// inputs. The collection also makes the first capacity
			// segment start from a collected heap.
			heap = heapAfterGC() - inputHeap
		}
		pool = run.closedLoop(closed, pool, closedDur/time.Duration(n))
	}

	// Drain: callbacks, then the follower.
	missing, expected := 0, 0
	if r.recv != nil {
		missing, expected = r.recv.missing()
	}
	if s.replicate {
		if err := waitReplicated(r); err != nil {
			chk.fail("replicated", "%v", err)
		}
	}
	after := takeSnap(r)
	whole := newDelta()
	whole.add(before, after)
	indexAfter, err := r.ctrl.IndexLen()
	if err != nil {
		return nil, err
	}
	phases := []*phase{open, closed}
	var attempted, failed, acked, answered int64
	for _, ph := range phases {
		attempted += ph.attempted.Load()
		failed += ph.failed.Load()
		acked += ph.acked.Load()
		answered += ph.answered.Load()
	}
	outputChecks(chk, r, int64(indexAfter-indexBefore), acked, whole.audit, answered)

	gids := r.gids
	if missing > 0 {
		chk.fail("notifications", "%d of %d expected notifications never arrived", missing, expected)
	}
	res := &result{
		Attempted: attempted + int64(expected),
		Failed:    failed + int64(missing),
		Metrics:   map[string]metric{},
		checked:   chk.ok(),
	}
	gen := genLate(open.late)
	res.Correct = res.checked && gen <= maxGenLateMS
	if gen > maxGenLateMS {
		fmt.Fprintf(log, "run invalid: the open-loop generator ran %.2f ms late at p99 (bound %.0f ms)\n", gen, maxGenLateMS)
	}

	if !cfg.trace {
		p50, n := latency(open.lat[s.primary], 0, 0.5, nil)
		p99, _ := latency(open.lat[s.primary], 0, 0.99, nil)
		values := map[string]float64{
			"setup_s":           median(setups),
			"heap_mb":           heap / (1 << 20),
			"disk_bytes_per_op": ratio(float64(whole.diskBytes()), float64(answered)),
			"ops_s":             float64(len(closed.lat[s.closed])) / closed.busy.Seconds(),
			"p50_ms":            p50,
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
		}
		fmt.Fprintf(log, "%s seed %d: %s latency p50 %.4f ms, p99 %.4f ms over %d samples (open loop, %.0f/s offered; generator late %.2f ms at p99)\n",
			s.name, cfg.seed, s.primary, p50, p99, n, s.rate, gen)
	} else {
		r.close()
		values, err := layerMetrics(s, cfg, r, w, open, tr, probeEvents, gids)
		if err != nil {
			return nil, err
		}
		values["bench.gen_late_p99_ms"] = gen
		values["bench.error_rate"] = ratio(float64(res.Failed), float64(res.Attempted))
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
		}
		spansPath := filepath.Join(cfg.root, "spans", fmt.Sprintf("%s-seed%d.jsonl", s.name, cfg.seed))
		if err := writeSpans(spansPath, tr.allSpans()); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "spans written to %s\n", spansPath)
	}
	for _, line := range chk.report() {
		fmt.Fprintln(log, line)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(log, "%-40s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintf(log, "attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	return res, nil
}

// heapAfterGC is the live Go heap in bytes after a forced collection.
func heapAfterGC() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// rounds is how many open-loop and closed-loop segments an untraced run
// alternates.
const rounds = 4

// maxGenLateMS bounds how late the open-loop generator may release at
// p99 before a run is invalid: past it, the offered load was not the
// one the workload states.
const maxGenLateMS = 20.0

func genLate(late []time.Duration) float64 { return ms(quantile(late, 0.99)) }

// outputChecks runs the end-of-run checks on the deployment.
func outputChecks(chk *checker, r *rig, indexed, acked int64, audited uint64, answered int64) {
	if indexed != acked {
		chk.fail("indexed", "index grew by %d, %d publishes acknowledged", indexed, acked)
	}
	if int64(audited) != answered {
		chk.fail("audited", "audit log grew by %d, %d operations answered", audited, answered)
	}
	if err := r.ctrl.Audit().Verify(); err != nil {
		chk.fail("audit-chain", "%v", err)
	}
	hit, err := plaintextIDs(r.dir)
	if err != nil {
		chk.fail("plaintext", "scan: %v", err)
	} else if hit != "" {
		chk.fail("plaintext", "person id in the clear: %s", hit)
	}
}

// waitReplicated waits until the follower has acknowledged every byte
// of every store the primary wrote.
func waitReplicated(r *rig) error {
	deadline := time.Now().Add(notifyTimeout)
	for {
		st := r.primary.Status()
		if len(st.Followers) != 1 {
			return fmt.Errorf("%d followers attached", len(st.Followers))
		}
		behind := ""
		for name, off := range st.Offsets {
			if acked := st.Followers[0].Acked[name]; acked != off {
				behind = fmt.Sprintf("store %s: follower acked %d of %d", name, acked, off)
			}
		}
		if behind == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New(behind)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
