package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/event"
	"repro/internal/idmap"
	"repro/internal/index"
	"repro/internal/store"
)

// probeN is how many calls each layer probe times.
const probeN = 2000

// probes calls the public functions of the layers that have no seam —
// idmap, index, store, audit, crypto and the event codecs — with the
// run's own inputs, on the reopened controller's stores (the run's
// history depth). It returns mean µs per call (bytes for sizes).
func probes(c *core.Controller, key []byte, events []*event.Notification, gids []event.GlobalID, scratch string, seed int64) (map[string]float64, error) {
	out := map[string]float64{}
	stores, err := c.ReplStores()
	if err != nil {
		return nil, err
	}
	named := map[string]*store.Store{}
	for _, ns := range stores {
		named[ns.Name] = ns.Store
	}
	keys, err := crypto.NewKeyring(key)
	if err != nil {
		return nil, err
	}
	rnd := rand.New(rand.NewSource(seed))

	ids := idmap.New(named["idmap"])
	out["idmap.assign_us"], err = timeN(func(i int) error {
		n := events[i%len(events)]
		_, err := ids.Assign(n.Producer, event.SourceID("probe-"+strconv.Itoa(i)), n.Class)
		return err
	})
	if err != nil {
		return nil, err
	}

	ix := index.New(named["index"], keys)
	out["index.get_us"], err = timeN(func(int) error {
		_, err := ix.Get(gids[rnd.Intn(len(gids))])
		return err
	})
	if err != nil {
		return nil, err
	}
	out["index.inquire_us"], err = timeN(func(i int) error {
		n := events[i%len(events)]
		_, err := ix.Inquire(index.Inquiry{PersonID: n.PersonID,
			From: n.OccurredAt.Add(-inquiryWindow), To: n.OccurredAt.Add(inquiryWindow)})
		return err
	})
	if err != nil {
		return nil, err
	}

	// A publish-shaped batch: the record and its three secondary keys.
	batch := func(i int) *store.Batch {
		n := events[i%len(events)]
		id := fmt.Sprintf("evt-probe-%08x%08x", rnd.Uint32(), i)
		ts := fmt.Sprintf("%020d", n.OccurredAt.UnixNano())
		b := new(store.Batch)
		b.Put("e/"+id, make([]byte, 360))
		b.Put("p/"+keys.Pseudonym(n.PersonID)+"/"+ts+"/"+id, []byte(id))
		b.Put("c/"+string(n.Class)+"/"+ts+"/"+id, []byte(id))
		b.Put("s/"+string(n.Producer)+"/"+id, []byte(id))
		return b
	}
	stage := func(st *store.Store) (float64, error) {
		bs := make([]*store.Batch, probeN)
		for i := range bs {
			bs[i] = batch(i)
		}
		return timeN(func(i int) error {
			_, err := st.StageApply(bs[i])
			return err
		})
	}
	if out["store.stage_apply_us"], err = stage(named["index"]); err != nil {
		return nil, err
	}
	empty, err := store.Open(filepath.Join(scratch, "empty.wal"), store.Options{})
	if err != nil {
		return nil, err
	}
	out["store.stage_apply_us_empty"], err = stage(empty)
	if cerr := empty.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	out["store.depth_ratio"] = ratio(out["store.stage_apply_us"], out["store.stage_apply_us_empty"])

	// A second log over the audit store continues the recovered chain;
	// the controller appends nothing while the probe runs.
	aud, err := audit.Open(named["audit"])
	if err != nil {
		return nil, err
	}
	out["audit.append_probe_us"], err = timeN(func(i int) error {
		_, err := aud.Append(audit.Record{Kind: audit.KindDetailRequest, Actor: "family-doctor",
			EventID: gids[i%len(gids)], Class: events[i%len(events)].Class, Outcome: "permit"})
		return err
	})
	if err != nil {
		return nil, err
	}

	out["crypto.pseudonym_us"], _ = timeN(func(i int) error {
		keys.Pseudonym(events[i%len(events)].PersonID)
		return nil
	})
	out["crypto.seal_us"], err = timeN(func(i int) error {
		_, err := keys.SealString(events[i%len(events)].PersonID)
		return err
	})
	if err != nil {
		return nil, err
	}

	for _, codec := range []event.Codec{event.XML, event.Binary} {
		wire := make([][]byte, len(events))
		size := 0
		out["event.encode_us."+codec.Name()], err = timeN(func(i int) error {
			b, err := codec.EncodeNotification(events[i%len(events)])
			wire[i%len(events)] = b
			size += len(b)
			return err
		})
		if err != nil {
			return nil, err
		}
		out["event.bytes."+codec.Name()] = float64(size) / probeN
		out["event.decode_us."+codec.Name()], err = timeN(func(i int) error {
			_, err := codec.DecodeNotification(wire[i%len(wire)])
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// timeN calls fn probeN times and returns the mean µs per call.
func timeN(fn func(i int) error) (float64, error) {
	start := time.Now()
	for i := 0; i < probeN; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start)) / float64(time.Microsecond) / probeN, nil
}

// probeEvents are the notifications the probes feed the layers: the
// run's timed publishes where it has them, else its preloaded events.
func (p *plan) probeEvents() []*event.Notification {
	var out []*event.Notification
	for _, o := range p.open {
		if o.kind == opPublish && len(out) < probeN {
			out = append(out, o.n)
		}
	}
	for _, n := range p.preN {
		if len(out) >= probeN {
			break
		}
		out = append(out, n)
	}
	return out
}
