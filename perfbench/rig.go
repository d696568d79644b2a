package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/enforcer"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/overload"
	"repro/internal/policy"
	"repro/internal/replication"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/workload"
)

// rig is one booted deployment: a controller with the scenario roster
// behind a loopback HTTP listener, the client the generator drives it
// with, and — per workload — the subscribers' callback endpoint or the
// replication follower.
type rig struct {
	s    spec
	dir  string
	key  []byte
	ctrl *core.Controller
	gws  map[event.ProducerID]*gateway.Gateway
	pols []*policy.Policy
	gids []event.GlobalID // ids of the preloaded events, in plan order

	hs     *http.Server
	served chan struct{}
	client *transport.Client

	recv *receiver

	replica  *core.Controller
	follower *replication.Follower
	primary  *replication.Primary

	tr *tracer // nil on untraced runs

	closeOnce sync.Once
}

// masterKey derives the index key from the seed, so a run is a function
// of its seed alone.
func masterKey(seed int64) []byte {
	h := sha256.Sum256(binary.BigEndian.AppendUint64([]byte("perfbench-key"), uint64(seed)))
	return h[:]
}

// controllerConfig is the css-controller default configuration: durable
// data dir without per-write fsync, bounded bus queues, default span
// sampling.
func controllerConfig(dir string, key []byte, codec event.Codec) core.Config {
	return core.Config{
		DataDir:        dir,
		MasterKey:      key,
		DefaultConsent: true,
		Codec:          codec,
		Bus:            bus.Options{MaxPending: 1024},
		SpanSampleRate: telemetry.DefaultSampleRate,
	}
}

// boot sets up a deployment for s from p and preloads it.
func boot(s spec, p *plan, key []byte, dir string, tr *tracer) (r *rig, err error) {
	r = &rig{s: s, dir: dir, key: key, tr: tr, gws: make(map[event.ProducerID]*gateway.Gateway)}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if s.replicate {
		if err := r.bootFollower(); err != nil {
			return r, err
		}
	}
	if r.ctrl, err = core.New(controllerConfig(filepath.Join(dir, "primary"), key, s.codec)); err != nil {
		return r, err
	}
	if s.replicate {
		if err := r.attachPrimary(); err != nil {
			return r, err
		}
	}
	if err := r.provision(); err != nil {
		return r, err
	}
	if err := r.preload(p); err != nil {
		return r, err
	}
	if err := r.serve(); err != nil {
		return r, err
	}
	if s.subscribe {
		if err := r.subscribe(); err != nil {
			return r, err
		}
	}
	return r, nil
}

func (r *rig) bootFollower() error {
	var err error
	cfg := controllerConfig(filepath.Join(r.dir, "replica"), r.key, r.s.codec)
	cfg.Replica = true
	if r.replica, err = core.New(cfg); err != nil {
		return err
	}
	rs, err := r.replica.ReplStores()
	if err != nil {
		return err
	}
	r.follower, err = replication.NewFollower("127.0.0.1:0", replication.FollowerConfig{
		Stores: rs, Epoch: 1, OnApply: r.replica.OnReplicatedApply(),
	})
	return err
}

func (r *rig) attachPrimary() error {
	ps, err := r.ctrl.ReplStores()
	if err != nil {
		return err
	}
	// No heartbeats, as in the repository's replication micro-benchmark:
	// a follower that finds a heartbeat buffered behind a data frame
	// defers that frame's ack until the next data frame, which stalls
	// quorum publishes up to their deadline and can leave the last ack
	// of a run unsent (see README.md, known defects).
	cfg := replication.PrimaryConfig{Stores: ps, Epoch: 1, Quorum: r.s.quorum}
	if r.tr != nil {
		cfg.Dial = r.tr.dial
	}
	if r.primary, err = replication.NewPrimary(cfg); err != nil {
		return err
	}
	r.primary.AddFollower(r.follower.Addr())
	r.ctrl.AttachReplication(r.primary)
	return nil
}

// provision registers the scenario roster, attaches one in-memory
// gateway per producer (through the traced detail-source seam when
// tracing) and installs the standard policy set.
func (r *rig) provision() error {
	c := r.ctrl
	for _, ps := range workload.Producers() {
		if err := c.RegisterProducer(ps.ID, ps.Name); err != nil {
			return err
		}
		for _, cl := range ps.Classes {
			if err := c.DeclareClass(ps.ID, cl); err != nil {
				return err
			}
		}
		gw, err := gateway.New(ps.ID, store.OpenMemory(), c.Catalog())
		if err != nil {
			return err
		}
		var src enforcer.DetailSource = gw
		if r.tr != nil {
			src = r.tr.source(gw)
		}
		if err := c.AttachGateway(ps.ID, src); err != nil {
			return err
		}
		r.gws[ps.ID] = gw
	}
	for _, cs := range workload.Consumers() {
		if err := c.RegisterConsumer(cs.Actor, cs.Name); err != nil {
			return err
		}
	}
	var err error
	r.pols, err = (&workload.Platform{Controller: c, Gateways: r.gws}).StandardPolicies()
	return err
}

// preload produces the plan's history through the public API from two
// producers at once.
func (r *rig) preload(p *plan) error {
	plat := &workload.Platform{Controller: r.ctrl, Gateways: r.gws}
	r.gids = make([]event.GlobalID, len(p.preN))
	var next int
	var mu sync.Mutex
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(p.preN) {
					return
				}
				gid, err := plat.Produce(p.preN[i], p.preD[i])
				if err != nil {
					errs[w] = fmt.Errorf("preload event %d: %w", i, err)
					return
				}
				r.gids[i] = gid
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// serve puts the controller behind a loopback listener with the default
// admission gate (per-actor limiting off: every generated request comes
// from one host) and builds the client over at most conns connections.
func (r *rig) serve() error {
	srv := transport.NewServer(r.ctrl).SetAdmission(overload.NewGate(overload.Config{
		ActorRPS: -1, Metrics: r.ctrl.Metrics(),
	}))
	var h http.Handler = srv
	if r.tr != nil {
		h = r.tr.handler(srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	r.served = make(chan struct{})
	go func() {
		defer close(r.served)
		_ = r.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	tr := transport.NewTunedTransport()
	tr.MaxConnsPerHost = conns
	tr.MaxIdleConnsPerHost = conns
	var rt http.RoundTripper = tr
	if r.tr != nil {
		rt = r.tr.roundTripper(tr)
	}
	r.client = transport.NewClient("http://"+ln.Addr().String(),
		&http.Client{Timeout: transport.DefaultHTTPTimeout, Transport: rt}, transport.WithCodec(r.s.codec))
	return nil
}

// subscriptions are the consumers' callback subscriptions on two-phase:
// every (actor, class) pair the standard policy set authorizes.
func subscriptions() []sub {
	var out []sub
	for _, ps := range workload.Producers() {
		for _, cl := range ps.Classes {
			for _, g := range grants(cl.Class()) {
				a := event.Actor(g[0])
				dup := false
				for _, o := range out {
					dup = dup || (o.actor == a && o.class == cl.Class())
				}
				if !dup {
					out = append(out, sub{actor: a, class: cl.Class()})
				}
			}
		}
	}
	return out
}

type sub struct {
	actor event.Actor
	class event.ClassID
}

func (r *rig) subscribe() error {
	subs := subscriptions()
	var err error
	if r.recv, err = newReceiver(subs, r.tr); err != nil {
		return err
	}
	for i, s := range subs {
		url := r.recv.base + "/cb/" + strconv.Itoa(i)
		if _, err := r.client.Subscribe(context.Background(), s.actor, s.class, url); err != nil {
			return fmt.Errorf("subscribe %s on %s: %w", s.actor, s.class, err)
		}
	}
	return nil
}

// close stops everything the rig started and waits for it. Callbacks
// still in flight need the receiver, so it stops after the controller;
// the shipper stops before the stores it tails close.
func (r *rig) close() { r.closeOnce.Do(r.shutdown) }

func (r *rig) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if r.hs != nil {
		_ = r.hs.Shutdown(ctx) // a slow drain only delays teardown
		<-r.served
	}
	if r.primary != nil {
		_ = r.primary.Close()
	}
	if r.ctrl != nil {
		_ = r.ctrl.CloseContext(ctx)
	}
	if r.recv != nil {
		r.recv.close(ctx)
	}
	if r.follower != nil {
		_ = r.follower.Close()
	}
	if r.replica != nil {
		_ = r.replica.Close()
	}
}

// remove deletes the rig's data directories.
func (r *rig) remove() error { return os.RemoveAll(r.dir) }
