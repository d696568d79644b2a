package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/event"
	"repro/internal/schema"
	"repro/internal/workload"
)

// Population and protocol constants shared by every workload.
const (
	people = 10000 // generated citizens; activity is Zipf-skewed over them
	conns  = 2     // client connections (nproc of the reference machine)

	// Share of the timed window given to the open-loop phase; the rest
	// measures closed-loop capacity.
	openShare = 0.6

	// followDelay is how long after a publish was due its two-phase
	// follow-ups (detail request and person inquiry) are due.
	followDelay = 20 * time.Millisecond

	// inquiryWindow is the half-width of a person inquiry's time window
	// around the event it was drawn from (simulated time: the generator
	// emits one event every 7 minutes).
	inquiryWindow = 3 * time.Hour
)

// spec is one benchmark workload.
type spec struct {
	name    string
	why     string
	codec   event.Codec
	preload int     // events produced through the public API before timing
	rate    float64 // open-loop offered rate of publishes (reads on details-read), ops/s
	// primary is the op kind whose open-loop latency is p50_ms.
	primary opKind
	// closed names what the closed-loop phase repeats: single publishes
	// or detail requests, or whole two-phase flows.
	closed opKind
	// setups is how many times set-up runs; setup_s is their median.
	setups int

	detailShare  float64 // details-read: share of detail requests (rest are inquiries)
	denyShare    float64 // details-read: share of requests no policy grants
	followShare  float64 // two-phase: share of publishes followed up
	subscribe    bool    // two-phase: consumers subscribe with callbacks
	replicate    bool    // ship the WALs to one in-process follower
	quorum       bool    // ack publishes only after the follower's fsync
	detailsAtGW  bool    // persist each timed publish's detail at its gateway first
	closedBudget float64 // upper bound on closed-loop ops/s, sizes the pre-generated ops
}

var specs = []spec{
	{
		name:  "publish-deep",
		why:   "publishes over a 100k-event history: idmap, index, store, audit and crypto work, bus/enforcer/gateway idle",
		codec: event.Binary, preload: 100000, rate: 800,
		primary: opPublish, closed: opPublish, setups: 1, closedBudget: 16000,
	},
	{
		name:  "details-read",
		why:   "detail requests and person inquiries over a Zipf working set larger than the read caches; no publishes",
		codec: event.Binary, preload: 20000, rate: 800,
		primary: opDetails, closed: opDetails, setups: 3, closedBudget: 30000,
		detailShare: 0.8, denyShare: 0.1,
	},
	{
		name:  "two-phase",
		why:   "the paper's protocol over XML: publish, callback fan-out, then detail request and inquiry on the same store",
		codec: event.XML, preload: 2000, rate: 400,
		primary: opNotify, closed: opFlow, setups: 3, closedBudget: 3000,
		followShare: 0.2, subscribe: true, detailsAtGW: true,
	},
	{
		name:  "publish-async",
		why:   "publishes shipped asynchronously to one follower, the daemon's default replication: ship/apply/ack beside the write path",
		codec: event.Binary, preload: 2000, rate: 500,
		primary: opPublish, closed: opPublish, setups: 3, closedBudget: 16000,
		replicate: true,
	},
	{
		name:  "publish-quorum",
		why:   "publishes against a primary that waits for one follower's fsync: replication ship/ack on the write path",
		codec: event.Binary, preload: 2000, rate: 600,
		primary: opPublish, closed: opPublish, setups: 3, closedBudget: 8000,
		replicate: true, quorum: true,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

type opKind uint8

const (
	opPublish opKind = iota
	opDetails
	opInquire
	opNotify // a callback arrival; never issued, only timed
	opFlow   // closed-loop two-phase flow: publish, arrival, details, inquiry
	nKinds
)

var kindNames = [nKinds]string{"publish", "details", "inquire", "notify", "flow"}

func (k opKind) String() string { return kindNames[k] }

// op is one generated operation. Publishes carry the notification (and
// the detail its producer persists); detail requests and inquiries name
// the preloaded event (ref ≥ 0) or the timed publish (follow) they are
// about.
type op struct {
	kind  opKind
	due   time.Duration // offset from the open-loop phase start
	trace string        // flow trace, unique per op

	n *event.Notification
	d *event.Detail

	ref    int // details-read: preloaded event index
	follow *op // two-phase: the publish this follow-up is about

	requester event.Actor
	purpose   event.Purpose
	person    string
	from, to  time.Time
}

// plan is everything a run feeds the controller, derived from the seed
// alone.
type plan struct {
	preN   []*event.Notification // preloaded events, in produce order
	preD   []*event.Detail
	warm   []*op // untimed warm-up before the first timed request
	open   []*op // open-loop schedule
	closed []*op // closed-loop pool, consumed in order until time runs out

	byPersonOnce sync.Once
	byPerson     map[string][]time.Time // preloaded occurrence times per person
}

// makePlan generates a workload's inputs from its seed. The event stream
// comes from workload.NewGenerator; the schedule, request mix and
// working-set draws from a second source seeded from the same value.
func makePlan(s spec, seed int64, openDur, closedDur time.Duration) *plan {
	gen := workload.NewGenerator(workload.Config{Seed: seed, People: people})
	rnd := rand.New(rand.NewSource(seed ^ 0x5eed5eed))
	p := &plan{}
	for i := 0; i < s.preload; i++ {
		n, d := gen.Next()
		p.preN = append(p.preN, n)
		p.preD = append(p.preD, d)
	}
	traceSeq := uint64(0)
	nextTrace := func() string {
		traceSeq++
		return hexTrace(binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, uint64(seed)), traceSeq))
	}
	publish := func() *op {
		n, d := gen.Next()
		n.Trace = nextTrace()
		if !s.detailsAtGW {
			d = nil // only two-phase asks for details of timed publishes
		}
		return &op{kind: opPublish, trace: n.Trace, n: n, d: d, ref: -1}
	}

	nOpen := int(s.rate * openDur.Seconds())
	nClosed := int(s.closedBudget * closedDur.Seconds())
	nWarm := 2000
	switch s.primary {
	case opDetails:
		hot := workingSet(rnd, len(p.preN))
		read := func() *op {
			if rnd.Float64() < s.detailShare {
				return detailOp(rnd, p.preN, hot(), s.denyShare, nextTrace())
			}
			return inquireOp(p.preN[hot()], nextTrace())
		}
		for i := 0; i < nWarm; i++ {
			p.warm = append(p.warm, read())
		}
		for i := 0; i < nOpen; i++ {
			o := read()
			o.due = dueAt(i, s.rate)
			p.open = append(p.open, o)
		}
		for i := 0; i < nClosed; i++ {
			p.closed = append(p.closed, detailOp(rnd, p.preN, hot(), s.denyShare, nextTrace()))
		}
	default:
		for i := 0; i < nWarm; i++ {
			p.warm = append(p.warm, publish())
		}
		for i := 0; i < nOpen; i++ {
			o := publish()
			o.due = dueAt(i, s.rate)
			p.open = append(p.open, o)
		}
		if s.followShare > 0 {
			var fol []*op
			for _, pub := range p.open {
				if rnd.Float64() >= s.followShare {
					continue
				}
				det := &op{kind: opDetails, due: pub.due + followDelay, trace: nextTrace(), ref: -1, follow: pub,
					requester: "family-doctor", purpose: event.PurposeHealthcareTreatment}
				inq := inquireOp(pub.n, nextTrace())
				inq.due, inq.follow = det.due, pub
				fol = append(fol, det, inq)
			}
			p.open = append(p.open, fol...)
			sort.SliceStable(p.open, func(i, j int) bool { return p.open[i].due < p.open[j].due })
		}
		for i := 0; i < nClosed; i++ {
			p.closed = append(p.closed, publish())
		}
	}
	return p
}

// hexTrace derives a 16-hex trace id from b.
func hexTrace(b []byte) string {
	h := sha256.Sum256(b)
	return fmt.Sprintf("%x", h[:8])
}

// subTrace derives the trace of a follow-up issued within a flow.
func subTrace(trace, tag string) string { return hexTrace([]byte(trace + "/" + tag)) }

// dueAt spaces open-loop arrivals evenly at rate ops/s.
func dueAt(i int, rate float64) time.Duration {
	return time.Duration(float64(i) * float64(time.Second) / rate)
}

// workingSet returns a Zipf-skewed draw over n preloaded events. The
// popularity ranks are a seeded permutation, so hot events are spread
// over producers, classes and time.
func workingSet(rnd *rand.Rand, n int) func() int {
	perm := rnd.Perm(n)
	z := rand.NewZipf(rnd, 1.1, 1, uint64(n-1))
	return func() int { return perm[z.Uint64()] }
}

// grants lists, per class, the (requester, purpose) pairs the standard
// policy set permits. It steers the generated mix; the output check
// judges every answer against the stored policies independently.
func grants(class event.ClassID) [][2]string {
	out := [][2]string{{"family-doctor", string(event.PurposeHealthcareTreatment)}}
	switch class {
	case schema.ClassHomeCare, schema.ClassFoodDelivery, schema.ClassHouseCleaning:
		out = append(out,
			[2]string{"social-welfare/home-care", string(event.PurposeSocialAssistance)},
			[2]string{"social-welfare/home-care", string(event.PurposeAdministration)})
	case schema.ClassAutonomyTest:
		out = append(out, [2]string{"national-governance/statistics", string(event.PurposeStatisticalAnalysis)})
	}
	if class == schema.ClassHomeCare {
		out = append(out, [2]string{"caring-coop", string(event.PurposeSocialAssistance)})
	}
	return out
}

// denials are (requester, purpose) pairs no standard policy grants on
// any class: a purpose the family doctor was never granted, and a
// registered consumer without policies.
var denials = [][2]string{
	{"family-doctor", string(event.PurposeStatisticalAnalysis)},
	{"hospital-s-maria/ward", string(event.PurposeHealthcareTreatment)},
}

func detailOp(rnd *rand.Rand, pre []*event.Notification, ref int, denyShare float64, trace string) *op {
	pair := denials[rnd.Intn(len(denials))]
	if rnd.Float64() >= denyShare {
		g := grants(pre[ref].Class)
		pair = g[rnd.Intn(len(g))]
	}
	return &op{kind: opDetails, trace: trace, ref: ref,
		requester: event.Actor(pair[0]), purpose: event.Purpose(pair[1])}
}

func inquireOp(n *event.Notification, trace string) *op {
	return &op{kind: opInquire, trace: trace, ref: -1, requester: "family-doctor",
		person: n.PersonID, from: n.OccurredAt.Add(-inquiryWindow), to: n.OccurredAt.Add(inquiryWindow)}
}
