package main

import (
	"bytes"
	"io/fs"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0). Every
// workload reports all of them; p50_ms and ops_s measure the workload's
// primary operation (see README.md). Tail latencies are per-layer
// (ops.*_p99_ms): on a shared two-CPU host they spread too far from run
// to run to hold a regression bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"disk_bytes_per_op", "B"},
	{"ops_s", "1/s"},
	{"p50_ms", "ms"},
}

// perLayer are the metrics of a traced run (--trace 1), named
// <module>.<metric>. Every workload reports all of them; a layer the
// workload leaves idle reads 0.
var perLayer = []metricDef{
	{"transport.edge_us.publish", "us"}, {"transport.edge_us.details", "us"}, {"transport.edge_us.inquire", "us"},
	{"transport.handler_self_us.publish", "us"}, {"transport.handler_self_us.details", "us"},
	{"transport.req_bytes.publish", "B"}, {"transport.resp_bytes.publish", "B"},
	{"transport.req_bytes.details", "B"}, {"transport.resp_bytes.details", "B"},
	{"transport.req_bytes.inquire", "B"}, {"transport.resp_bytes.inquire", "B"},
	{"transport.callbacks_per_publish", "count"}, {"transport.shed", "count"},
	{"core.publish_self_us", "us"}, {"core.detail_self_us", "us"}, {"core.inquire_us", "us"},
	{"idmap.assign_us", "us"},
	{"index.put_us", "us"}, {"index.get_us", "us"}, {"index.inquire_us", "us"},
	{"index.notif_hit_ratio", "ratio"}, {"index.pseudonym_hit_ratio", "ratio"},
	{"store.stage_apply_us", "us"}, {"store.stage_apply_us_empty", "us"}, {"store.depth_ratio", "ratio"},
	{"store.wal_bytes_per_op.idmap", "B"}, {"store.wal_bytes_per_op.index", "B"}, {"store.wal_bytes_per_op.audit", "B"},
	{"store.reopen_s", "s"},
	{"audit.append_us", "us"}, {"audit.append_probe_us", "us"}, {"audit.records_per_op", "count"},
	{"bus.publish_us", "us"}, {"bus.deliver_us", "us"}, {"bus.deliveries_per_publish", "count"},
	{"bus.useful_ratio", "ratio"}, {"bus.queue_hwm", "count"},
	{"enforcer.pdp_us", "us"}, {"enforcer.decision_hit_ratio", "ratio"}, {"enforcer.permit_ratio", "ratio"},
	{"gateway.fetch_us", "us"}, {"gateway.source_us", "us"},
	{"gateway.detail_hit_ratio", "ratio"}, {"gateway.flight_coalesce_ratio", "ratio"},
	{"consent.check_us", "us"},
	{"event.encode_us.xml", "us"}, {"event.decode_us.xml", "us"}, {"event.bytes.xml", "B"},
	{"event.encode_us.binary", "us"}, {"event.decode_us.binary", "us"}, {"event.bytes.binary", "B"},
	{"crypto.pseudonym_us", "us"}, {"crypto.seal_us", "us"},
	{"replication.ship_bytes_per_publish", "B"}, {"replication.ack_rtt_us", "us"}, {"replication.lag_bytes_max", "B"},
	{"runtime.gc_cpu_fraction", "ratio"}, {"runtime.allocs_per_op", "count"}, {"runtime.alloc_bytes_per_op", "B"},
	{"bench.gen_late_p99_ms", "ms"}, {"bench.trace_overhead_pct", "%"}, {"bench.unattributed_pct", "%"},
	{"bench.error_rate", "ratio"},
	{"ops.publish_p50_ms", "ms"}, {"ops.publish_p99_ms", "ms"}, {"ops.publish_n", "count"},
	{"ops.details_p50_ms", "ms"}, {"ops.details_p99_ms", "ms"}, {"ops.details_n", "count"},
	{"ops.inquire_p50_ms", "ms"}, {"ops.inquire_p99_ms", "ms"}, {"ops.inquire_n", "count"},
	{"ops.notify_p50_ms", "ms"}, {"ops.notify_p99_ms", "ms"}, {"ops.notify_n", "count"},
}

// snap is a point-in-time reading of everything the program exports
// that the benchmark attributes: its metrics registry, the Go runtime,
// the data-dir file sizes and the audit log length.
type snap struct {
	prom  map[string]float64
	rt    [len(rtNames)]float64
	files map[string]int64
	audit uint64
}

var rtNames = [...]string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
}

func takeSnap(r *rig) snap {
	s := snap{prom: readProm(r.ctrl.Metrics()), files: dirSizes(r.dir), audit: r.ctrl.Audit().Len()}
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	for i, sm := range samples {
		switch sm.Value.Kind() {
		case metrics.KindFloat64:
			s.rt[i] = sm.Value.Float64()
		case metrics.KindUint64:
			s.rt[i] = float64(sm.Value.Uint64())
		}
	}
	return s
}

// readProm parses the registry's Prometheus text exposition into series
// → value, skipping histogram buckets.
func readProm(reg *telemetry.Registry) map[string]float64 {
	var buf bytes.Buffer
	_ = reg.WritePrometheus(&buf) // writes to a buffer cannot fail
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "_bucket{") {
			continue
		}
		end := strings.IndexByte(line, ' ')
		if i := strings.IndexByte(line, '{'); i >= 0 && i < end {
			end = strings.IndexByte(line, '}') + 1
		}
		if end <= 0 || end >= len(line) {
			continue
		}
		fields := strings.Fields(line[end:])
		if len(fields) == 0 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[0], 64); err == nil {
			out[line[:end]] = v
		}
	}
	return out
}

// dirSizes maps every file under dir (relative path) to its size.
func dirSizes(dir string) map[string]int64 {
	out := map[string]int64{}
	_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // a file vanishing mid-walk is not a size
		}
		if info, err := d.Info(); err == nil {
			rel, _ := filepath.Rel(dir, path)
			out[rel] = info.Size()
		}
		return nil
	})
	return out
}

// delta accumulates the differences between snapshot pairs.
type delta struct {
	prom  map[string]float64
	rt    [len(rtNames)]float64
	files map[string]int64
	audit uint64
}

func newDelta() *delta { return &delta{prom: map[string]float64{}, files: map[string]int64{}} }

func (d *delta) add(from, to snap) {
	for k, v := range to.prom {
		d.prom[k] += v - from.prom[k]
	}
	for i := range d.rt {
		d.rt[i] += to.rt[i] - from.rt[i]
	}
	for k, v := range to.files {
		d.files[k] += v - from.files[k]
	}
	d.audit += to.audit - from.audit
}

func (d *delta) diskBytes() int64 {
	var n int64
	for _, v := range d.files {
		n += v
	}
	return n
}

// sum adds the series of metric name whose labels contain every given
// label="value" pair.
func (d *delta) sum(name string, labels ...string) float64 {
	total := 0.0
	for k, v := range d.prom {
		if k != name && !strings.HasPrefix(k, name+"{") {
			continue
		}
		match := true
		for i := 0; i+1 < len(labels); i += 2 {
			match = match && strings.Contains(k, labels[i]+"="+strconv.Quote(labels[i+1]))
		}
		if match {
			total += v
		}
	}
	return total
}

// meanUS is the mean of a seconds histogram over the delta, in µs.
func (d *delta) meanUS(name string, labels ...string) float64 {
	return ratio(d.sum(name+"_sum", labels...)*1e6, d.sum(name+"_count", labels...))
}

// hitRatio is hits ÷ lookups of one read cache.
func (d *delta) hitRatio(cache string) float64 {
	hit := d.sum("css_cache_events_total", "cache", cache, "result", "hit")
	return ratio(hit, d.sum("css_cache_events_total", "cache", cache))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
