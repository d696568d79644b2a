package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/enforcer"
	"repro/internal/event"
	"repro/internal/index"
	"repro/internal/transport"
)

// notifyTimeout bounds how long a follow-up waits for its notification
// and how long the end of a run waits for outstanding callbacks.
const notifyTimeout = 5 * time.Second

// sample is one timed operation: when it completed, relative to its
// phase start, and its latency.
type sample struct {
	at, lat time.Duration
}

// phase collects the samples and outcome counts of one load phase.
type phase struct {
	start time.Time     // the phase's clock reads zero here; guarded by mu once ops run
	busy  time.Duration // closed loop: time spent issuing, over every segment

	mu   sync.Mutex
	lat  [nKinds][]sample
	late []time.Duration // open loop: release time − due time, per op

	attempted atomic.Int64 // ops issued
	failed    atomic.Int64 // ops that failed, were refused or shed
	acked     atomic.Int64 // publishes acknowledged with a global id
	answered  atomic.Int64 // ops the controller decided (each appends one audit record)
}

func (ph *phase) record(k opKind, done time.Time, lat time.Duration) {
	ph.mu.Lock()
	ph.lat[k] = append(ph.lat[k], sample{at: done.Sub(ph.start), lat: lat})
	ph.mu.Unlock()
}

// runner drives one booted rig with a plan.
type runner struct {
	s    spec
	p    *plan
	rig  *rig
	chk  *checker
	tr   *tracer
	reqs atomic.Uint64 // request ids for spans
}

// exec issues o and times it from due, the moment it was released.
func (r *runner) exec(ph *phase, o *op, due time.Time) {
	ph.attempted.Add(1)
	var err error
	switch o.kind {
	case opPublish:
		err = r.publish(ph, o, due)
	case opDetails:
		err = r.details(ph, o, due)
	case opInquire:
		err = r.inquire(ph, o, due)
	}
	if err != nil {
		ph.failed.Add(1)
		r.chk.opError(o.kind, err)
	}
}

// flow runs one two-phase interaction back to back: publish, wait for
// the family doctor's notification, request its details, inquire the
// person's index. It is the closed-loop unit of two-phase.
func (r *runner) flow(ph *phase, o *op) {
	start := time.Now()
	r.exec(ph, o, start)
	det := &op{kind: opDetails, trace: subTrace(o.trace, "details"), ref: -1, follow: o,
		requester: "family-doctor", purpose: event.PurposeHealthcareTreatment}
	r.exec(ph, det, time.Now())
	inq := inquireOp(o.n, subTrace(o.trace, "inquire"))
	inq.follow = o
	r.exec(ph, inq, time.Now())
	ph.record(opFlow, time.Now(), time.Since(start))
}

func (r *runner) publish(ph *phase, o *op, due time.Time) error {
	if o.d != nil {
		if err := r.rig.gws[o.n.Producer].Persist(o.d); err != nil {
			return err
		}
	}
	if r.rig.recv != nil {
		r.rig.recv.released(o.trace, due, ph)
	}
	ctx, end := r.tr.client(context.Background(), "publish", o.trace, r.reqs.Add(1))
	_, err := r.rig.client.Publish(ctx, o.n)
	end()
	done := time.Now()
	if err != nil {
		return err
	}
	ph.record(opPublish, done, done.Sub(due))
	ph.acked.Add(1)
	ph.answered.Add(1)
	return nil
}

func (r *runner) details(ph *phase, o *op, due time.Time) error {
	req := &event.DetailRequest{Requester: o.requester, Purpose: o.purpose, Trace: o.trace}
	var want *event.Detail
	if o.follow != nil {
		gid, ok := r.rig.recv.flow(o.follow.trace).wait()
		if !ok {
			return errNoNotification
		}
		req.EventID, req.Class, want = gid, o.follow.n.Class, o.follow.d
	} else {
		req.EventID, req.Class, want = r.rig.gids[o.ref], r.p.preN[o.ref].Class, r.p.preD[o.ref]
	}
	ctx, end := r.tr.client(context.Background(), "details", o.trace, r.reqs.Add(1))
	d, err := r.rig.client.RequestDetails(ctx, req)
	end()
	done := time.Now()
	denied := errors.Is(err, enforcer.ErrDenied)
	if err != nil && !denied {
		return err
	}
	ph.record(opDetails, done, done.Sub(due))
	ph.answered.Add(1)
	r.chk.detail(r.rig.pols, req, d, want)
	return nil
}

func (r *runner) inquire(ph *phase, o *op, due time.Time) error {
	ctx, end := r.tr.client(context.Background(), "inquire", o.trace, r.reqs.Add(1))
	res, err := r.rig.client.InquireIndex(ctx, o.requester, index.Inquiry{PersonID: o.person, From: o.from, To: o.to})
	end()
	done := time.Now()
	if err != nil {
		return err
	}
	ph.record(opInquire, done, done.Sub(due))
	ph.answered.Add(1)
	var mustHave event.GlobalID
	if o.follow != nil {
		// The followed publish was notified before this inquiry was
		// due, so the index must list it.
		gid, ok := r.rig.recv.flow(o.follow.trace).wait()
		if !ok {
			return errNoNotification
		}
		mustHave = gid
	}
	r.chk.inquiry(r.p, o, res, mustHave)
	return nil
}

// warm runs ops closed-loop, untimed, to fill connection pools and read
// caches before the first timed request.
func (r *runner) warm(ops []*op) *phase {
	ph := &phase{start: time.Now()}
	r.closedWorkers(ph, ops, time.Time{}, false)
	return ph
}

// released is an open-loop op and the moment the generator released it.
type released struct {
	o  *op
	at time.Time
}

// openLoop releases the ops of the schedule due in [from, to) at their
// due times, in ticks of at least one millisecond, to conns workers. The
// schedule runs on ph's clock, which openLoop sets to read from at its
// start, so a phase run in several segments keeps one clock that stands
// still between them. Each op is timed from its release, so a stall
// shows as latency on every op queued behind it, while the tick's own
// slack — how long the host's nanosleep overshoots, which varies from
// host to host and minute to minute — stays out of the latency and is
// reported as the generator's lateness instead.
func (r *runner) openLoop(ph *phase, ops []*op, from, to time.Duration) {
	i := sort.Search(len(ops), func(i int) bool { return ops[i].due >= from })
	end := sort.Search(len(ops), func(i int) bool { return ops[i].due >= to })
	ph.mu.Lock() // late callbacks of an earlier segment read the clock
	ph.start = time.Now().Add(-from)
	ph.mu.Unlock()
	queue := make(chan released, end-i) // the whole segment fits: release never blocks
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rel := range queue {
				r.exec(ph, rel.o, rel.at)
			}
		}()
	}
	for i < end || time.Since(ph.start) < to {
		at := time.Now()
		now := at.Sub(ph.start)
		for ; i < end && ops[i].due <= now; i++ {
			ph.late = append(ph.late, now-ops[i].due)
			queue <- released{ops[i], at}
		}
		tickSleep()
	}
	close(queue)
	wg.Wait()
}

// closedLoop runs conns workers back to back over the pool until dur
// elapses or the pool is used up, adds the time to ph.busy and returns
// the part of the pool not yet issued.
func (r *runner) closedLoop(ph *phase, ops []*op, dur time.Duration) []*op {
	start := time.Now()
	if ph.start.IsZero() {
		ph.start = start
	}
	n := r.closedWorkers(ph, ops, start.Add(dur), r.s.closed == opFlow)
	ph.busy += time.Since(start)
	return ops[n:]
}

// closedWorkers runs conns workers back to back over ops until the
// deadline (none if zero) or the end of ops, and returns how many ops
// they issued.
func (r *runner) closedWorkers(ph *phase, ops []*op, deadline time.Time, flows bool) int {
	var next, issued atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) || (!deadline.IsZero() && time.Now().After(deadline)) {
					return
				}
				issued.Add(1)
				if flows {
					r.flow(ph, ops[i])
				} else {
					r.exec(ph, ops[i], time.Now())
				}
			}
		}()
	}
	wg.Wait()
	return int(issued.Load())
}

// --- latency statistics -------------------------------------------------

// quantile returns the q-quantile of ds (nearest rank); ds is sorted in
// place.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(q*float64(len(ds))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(ds) {
		i = len(ds) - 1
	}
	return ds[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// minTail is the number of samples a percentile needs beyond it.
const minTail = 10

// latency returns the q-quantile in ms of the samples that completed in
// the windows of width w that keep accepts (all of them when keep is
// nil), and how many samples that was.
func latency(ss []sample, w time.Duration, q float64, keep func(window int) bool) (float64, int) {
	var ds []time.Duration
	for _, s := range ss {
		if keep == nil || keep(int(s.at/w)) {
			ds = append(ds, s.lat)
		}
	}
	return ms(quantile(ds, q)), len(ds)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// --- subscriber callbacks -----------------------------------------------

// flowState tracks the notifications of one timed publish.
type flowState struct {
	n      *event.Notification
	expect int
	doctor chan struct{} // closed when the family doctor's copy arrives

	// Guarded by receiver.mu.
	due   time.Time
	ph    *phase
	got   int
	id    event.GlobalID
	after bool // doctor channel closed
}

var errNoNotification = errors.New("notification never arrived for the follow-up")

// wait returns the global id the family doctor's notification carried,
// waiting up to notifyTimeout for it to arrive.
func (f *flowState) wait() (event.GlobalID, bool) {
	select {
	case <-f.doctor:
		return f.id, true // written before the channel closed
	case <-time.After(notifyTimeout):
		return "", false
	}
}

// receiver is the consumers' callback endpoint: one NotificationReceiver
// per subscription on a loopback listener. It times each arrival from
// its publish's release time.
type receiver struct {
	subs   []sub
	chk    *checker
	base   string
	hs     *http.Server
	served chan struct{}

	mu         sync.Mutex
	flows      map[string]*flowState
	unexpected int
	arrivals   atomic.Int64
}

func newReceiver(subs []sub, tr *tracer) (*receiver, error) {
	rc := &receiver{subs: subs, flows: make(map[string]*flowState)}
	mux := http.NewServeMux()
	for i := range subs {
		i := i
		var h http.Handler = transport.NewNotificationReceiver(func(n *event.Notification) { rc.arrive(i, n) })
		if tr != nil {
			h = tr.callback(h)
		}
		mux.Handle("/cb/"+strconv.Itoa(i), h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rc.base = "http://" + ln.Addr().String()
	rc.hs = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	rc.served = make(chan struct{})
	go func() {
		defer close(rc.served)
		_ = rc.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return rc, nil
}

// expectAll registers every publish of the plan, so each arrival can be
// matched to the publish it notifies.
func (rc *receiver) expectAll(ops ...[]*op) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for _, part := range ops {
		for _, o := range part {
			if o.kind != opPublish {
				continue
			}
			f := &flowState{n: o.n, doctor: make(chan struct{})}
			for _, s := range rc.subs {
				if s.class == o.n.Class {
					f.expect++
				}
			}
			rc.flows[o.trace] = f
		}
	}
}

func (rc *receiver) flow(trace string) *flowState {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.flows[trace]
}

// released notes that the publish of trace is being sent, due at due.
func (rc *receiver) released(trace string, due time.Time, ph *phase) {
	rc.mu.Lock()
	if f := rc.flows[trace]; f != nil {
		f.due, f.ph = due, ph
	}
	rc.mu.Unlock()
}

func (rc *receiver) arrive(i int, n *event.Notification) {
	now := time.Now()
	rc.arrivals.Add(1)
	s := rc.subs[i]
	rc.mu.Lock()
	f := rc.flows[n.Trace]
	if f == nil || f.got >= f.expect {
		rc.unexpected++
		rc.mu.Unlock()
		return
	}
	f.got++
	due, ph := f.due, f.ph
	if s.actor == "family-doctor" && !f.after {
		f.id, f.after = n.ID, true
		close(f.doctor)
	}
	rc.mu.Unlock()
	rc.chk.notification(s, f.n, n)
	if ph != nil {
		ph.record(opNotify, now, now.Sub(due))
	}
}

// missing waits up to notifyTimeout for outstanding callbacks and
// returns how many expected notifications never arrived, and how many
// were expected in all.
func (rc *receiver) missing() (missing, expected int) {
	deadline := time.Now().Add(notifyTimeout)
	for {
		missing, expected = 0, 0
		rc.mu.Lock()
		for _, f := range rc.flows {
			if f.ph == nil {
				continue // never published
			}
			expected += f.expect
			missing += f.expect - f.got
		}
		rc.mu.Unlock()
		if missing == 0 || time.Now().After(deadline) {
			return missing, expected
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (rc *receiver) close(ctx context.Context) {
	_ = rc.hs.Shutdown(ctx) // a slow drain only delays teardown
	<-rc.served
}

// tickSleep waits one generator tick in a blocking system call rather
// than on a runtime timer: a timer belongs to a scheduler P and fires
// late while that P runs a long stretch of GC mark work, whereas a
// thread returning from a syscall queues for whichever P frees first.
func tickSleep() {
	ts := syscall.NsecToTimespec(int64(time.Millisecond))
	_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens one tick
}
