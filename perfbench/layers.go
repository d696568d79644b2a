package main

import (
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/event"
)

// windows alternates tracing on and off in consecutive windows of the
// open-loop phase (even windows traced), snapshots the program's
// exports at every boundary and sums the traced windows' deltas. The
// untraced windows give the same run's baseline for the tracing
// overhead and the per-operation latencies. It runs on its own
// goroutine, so the generator's releases never wait for it.
type windows struct {
	r  *rig
	tr *tracer

	next   int  // window in progress
	prev   snap // snapshot at its start
	on     *delta
	lagMax int64

	stop chan struct{}
	done chan struct{}
}

// traceWindow is the width of each traced or untraced window.
const traceWindow = time.Second

func traced(win int) bool { return win%2 == 0 }

// start begins window 0, traced, from the snapshot taken before it.
func (w *windows) start(before snap) {
	w.prev, w.on = before, newDelta()
	w.stop, w.done = make(chan struct{}), make(chan struct{})
	w.tr.on.Store(true)
	go w.observe(time.Now())
}

// observe samples every 250 ms while a traced window is open: the
// program's span ring (it is a ring, so it is read often) and the
// replication status.
func (w *windows) observe(t0 time.Time) {
	defer close(w.done)
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			if traced(w.next) {
				w.boundary()
			}
			w.tr.on.Store(false)
			return
		case <-tick.C:
		}
		if w.tr.on.Load() {
			w.tr.harvest(w.r.ctrl)
			if w.r.primary != nil {
				for _, f := range w.r.primary.Status().Followers {
					w.lagMax = max(w.lagMax, f.LagBytes)
				}
			}
		}
		if time.Since(t0) >= time.Duration(w.next+1)*traceWindow {
			w.boundary()
		}
	}
}

func (w *windows) boundary() {
	cur := takeSnap(w.r)
	if traced(w.next) {
		w.tr.harvest(w.r.ctrl)
		w.on.add(w.prev, cur)
	}
	w.prev = cur
	w.next++
	w.tr.on.Store(traced(w.next))
}

// finish closes the window in progress and waits for the observer.
func (w *windows) finish() {
	close(w.stop)
	<-w.done
}

// layerMetrics computes the per-layer metrics of a traced run: seam
// spans and the program's exported counters over the traced windows,
// the untraced windows' per-operation latencies, then — after the
// deployment is closed — the reopen time and the layer probes.
func layerMetrics(s spec, cfg config, r *rig, w *windows, open *phase, tr *tracer,
	probeEvents []*event.Notification, gids []event.GlobalID) (map[string]float64, error) {
	v := map[string]float64{}
	d := w.on
	inWin := func(k opKind, keep func(int) bool) float64 {
		n := 0
		for _, sm := range open.lat[k] {
			if keep(int(sm.at / traceWindow)) {
				n++
			}
		}
		return float64(n)
	}
	pubs := inWin(opPublish, traced)
	ops := pubs + inWin(opDetails, traced) + inWin(opInquire, traced)

	spans := tr.allSpans()
	spanMean := func(name string) float64 {
		var sum time.Duration
		n := 0
		for _, sp := range spans {
			if sp.Name == name {
				sum += sp.dur()
				n++
			}
		}
		return ratio(float64(sum)/float64(time.Microsecond), float64(n))
	}
	for _, ep := range []string{"publish", "details", "inquire"} {
		client, handler := spanMean("client "+ep), spanMean("handler "+ep)
		if client > 0 && handler > 0 {
			v["transport.edge_us."+ep] = client - handler
		}
		c := tr.bytes[ep]
		v["transport.req_bytes."+ep] = ratio(float64(c[1].Load()), float64(c[0].Load()))
		v["transport.resp_bytes."+ep] = ratio(float64(c[2].Load()), float64(c[0].Load()))
	}
	flowPub := d.meanUS("css_publish_seconds")
	stage := func(st string) float64 { return d.meanUS("css_stage_seconds", "stage", st) }
	if h := spanMean("handler publish"); h > 0 && flowPub > 0 {
		v["transport.handler_self_us.publish"] = h - flowPub
		v["core.publish_self_us"] = flowPub - stage("index.put") - stage("audit.append") - stage("bus.publish")
	}
	if detN := d.sum("css_detail_request_seconds_count"); detN > 0 {
		flowDet := d.meanUS("css_detail_request_seconds")
		if h := spanMean("handler details"); h > 0 {
			v["transport.handler_self_us.details"] = h - flowDet
		}
		// Deny decisions skip the fetch, so stage time is spread over
		// every request, not over the stage's own calls.
		staged := 0.0
		for _, st := range []string{"consent.check", "pdp.decide", "gateway.fetch"} {
			staged += d.sum("css_stage_seconds_sum", "stage", st)
		}
		v["core.detail_self_us"] = flowDet - staged*1e6/detN
	}
	v["core.inquire_us"] = spanMean("handler inquire")
	v["transport.callbacks_per_publish"] = ratio(float64(tr.cbCount.Load()), pubs)
	v["transport.shed"] = d.sum("css_overload_shed_total")

	v["index.put_us"] = stage("index.put")
	v["index.notif_hit_ratio"] = d.hitRatio("index.notification")
	v["index.pseudonym_hit_ratio"] = d.hitRatio("index.pseudonym")
	for _, wal := range []string{"idmap", "index", "audit"} {
		v["store.wal_bytes_per_op."+wal] = ratio(float64(d.files[filepath.Join("primary", wal+".wal")]), ops)
	}
	v["audit.append_us"] = stage("audit.append")
	v["audit.records_per_op"] = ratio(float64(d.audit), ops)
	v["bus.publish_us"] = stage("bus.publish")
	v["bus.deliver_us"] = stage("bus.deliver")
	delivered := d.sum("css_deliveries_total")
	v["bus.deliveries_per_publish"] = ratio(delivered, d.sum("css_publish_total"))
	v["bus.useful_ratio"] = ratio(delivered, delivered+d.sum("css_consent_drops_total")+d.sum("css_bus_overflow_total"))
	v["bus.queue_hwm"] = w.prev.prom["css_bus_queue_depth_hwm"]
	v["enforcer.pdp_us"] = stage("pdp.decide")
	v["enforcer.decision_hit_ratio"] = d.hitRatio("pdp.decision")
	v["enforcer.permit_ratio"] = ratio(d.sum("css_detail_decisions_total", "outcome", "permit"), d.sum("css_detail_decisions_total"))
	v["gateway.fetch_us"] = stage("gateway.fetch")
	v["gateway.source_us"] = spanMean("gateway.source")
	v["gateway.detail_hit_ratio"] = d.hitRatio("gateway.detail")
	v["gateway.flight_coalesce_ratio"] = d.hitRatio("gateway.flight")
	v["consent.check_us"] = stage("consent.check")
	if r.primary != nil {
		v["replication.ship_bytes_per_publish"] = ratio(float64(tr.shipped.Load()), pubs)
		tr.mu.Lock()
		v["replication.ack_rtt_us"] = float64(quantile(tr.rtt, 0.5)) / float64(time.Microsecond)
		tr.mu.Unlock()
		v["replication.lag_bytes_max"] = float64(w.lagMax)
	}
	v["runtime.gc_cpu_fraction"] = ratio(d.rt[0], d.rt[1])
	v["runtime.allocs_per_op"] = ratio(d.rt[2], ops)
	v["runtime.alloc_bytes_per_op"] = ratio(d.rt[3], ops)

	onP50, _ := latency(open.lat[s.primary], traceWindow, 0.5, traced)
	offP50, _ := latency(open.lat[s.primary], traceWindow, 0.5, func(win int) bool { return !traced(win) })
	v["bench.trace_overhead_pct"] = 100 * ratio(onP50-offP50, offP50)
	v["bench.unattributed_pct"] = unattributed(spans)
	for _, k := range []opKind{opPublish, opDetails, opInquire, opNotify} {
		untraced := func(win int) bool { return !traced(win) }
		p50, n := latency(open.lat[k], traceWindow, 0.5, untraced)
		v["ops."+k.String()+"_p50_ms"] = p50
		v["ops."+k.String()+"_n"] = float64(n)
		if n >= minTail*100 { // a p99 needs minTail samples beyond it
			v["ops."+k.String()+"_p99_ms"], _ = latency(open.lat[k], traceWindow, 0.99, untraced)
		}
	}

	// Reopen the closed deployment's data dir, then probe the layers on
	// its stores.
	start := time.Now()
	c, err := core.New(controllerConfig(filepath.Join(r.dir, "primary"), r.key, s.codec))
	if err != nil {
		return nil, err
	}
	v["store.reopen_s"] = time.Since(start).Seconds()
	pr, err := probes(c, r.key, probeEvents, gids, r.dir, cfg.seed)
	if cerr := c.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	for k, x := range pr {
		v[k] = x
	}
	return v, nil
}

// unattributed is the share of the client-observed p50 of publishes and
// detail requests that the layers' median self times do not add up to,
// over requests whose whole span tree was recorded. Medians of parts do
// not sum to the median of the whole, so this measures how much of the
// typical request no layer's typical cost explains.
func unattributed(spans []span) float64 {
	var resid, base float64
	for _, ep := range []string{"publish", "details"} {
		client, layers := selfTimes(spans, ep)
		if len(client) == 0 {
			continue
		}
		p50 := ms(quantile(client, 0.5))
		covered := 0.0
		for _, ds := range layers {
			covered += ms(quantile(ds, 0.5))
		}
		resid += p50 - covered
		base += p50
	}
	return 100 * ratio(resid, base)
}
