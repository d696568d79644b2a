// Replication role of the controller: a read replica applies a
// primary's WAL stream into the same stores a primary writes, serves
// index inquiries from them, refuses every write flow with a
// not-primary redirect, and can be promoted in place when the primary
// dies. A primary exposes its persistent stores in write-path
// dependency order for the replication shipper and, in quorum mode,
// overlaps the follower fsync barrier with bus fan-out on every
// publish.
package core

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/policy"
	"repro/internal/replication"
	"repro/internal/schema"
	"repro/internal/telemetry"
)

// Replication-role errors.
var (
	// ErrNotReplica reports Promote on a controller already primary.
	ErrNotReplica = errors.New("core: controller is not a replica")
	// ErrNotPersistent reports replication wiring on an in-memory
	// controller — WAL shipping needs WALs.
	ErrNotPersistent = errors.New("core: replication requires a data directory")
)

// IsReplica reports whether this controller currently runs as a read
// replica (refusing writes).
func (c *Controller) IsReplica() bool { return c.replica.Load() }

// ReplicationEpoch returns the fencing epoch this node last adopted or
// was promoted at (0 until either happens).
func (c *Controller) ReplicationEpoch() uint64 { return c.replEpoch.Load() }

// notPrimary builds the redirect fault a replica answers write flows
// with. Under a shard map it names this shard and the map version so the
// client can re-resolve the primary; unsharded replicas answer the
// zero-valued hint.
func (c *Controller) notPrimary() error {
	e := &cluster.NotPrimaryError{}
	if c.shard != nil {
		e.Shard = c.shard.id
		if m := c.reg.ShardMap(); m != nil {
			e.Version = m.Version()
		}
	}
	return e
}

// auditRead appends a read-flow audit record unless this controller is
// a read replica: a replica's audit store is a byte-identical prefix of
// the primary's chain, so a local append would fork it (and be
// clobbered by the next applied segment). Replica-served reads remain
// observable through css_index_inquiries_total.
func (c *Controller) auditRead(r audit.Record) {
	if c.replica.Load() {
		return
	}
	c.aud.Append(r)
}

// ReplStores returns the controller's persistent stores in write-path
// dependency order — the exact slice both ends of a replication link
// must be configured with. Only a controller with a DataDir has WALs to
// ship.
func (c *Controller) ReplStores() ([]replication.NamedStore, error) {
	if len(c.replStores) == 0 {
		return nil, ErrNotPersistent
	}
	out := make([]replication.NamedStore, len(c.replStores))
	copy(out, c.replStores)
	return out, nil
}

// AttachReplication connects the publish path to the replication
// primary shipping this controller's WALs: in quorum mode every
// accepted publish waits for the follower fsync barrier (overlapped
// with bus fan-out, like the group-commit barrier it joins).
func (c *Controller) AttachReplication(p *replication.Primary) {
	c.repl.Store(p)
	if p != nil {
		c.replEpoch.Store(p.Epoch())
	}
}

// MarkEpoch writes an epoch marker into every replicated store
// (store.MarkEpoch), so that rejoin can match logs by (epoch, offset)
// alone. Each marker starts a writer incarnation: Promote marks
// itself; a boot-time primary calls this on every boot, before
// anything writes — scenario provisioning included — and before
// shipping starts. An epoch below a marker already in a log is refused
// (store.ErrStaleEpoch): that log belongs to a newer writer.
func (c *Controller) MarkEpoch(epoch uint64) error {
	for _, ns := range c.replStores {
		if err := ns.Store.MarkEpoch(epoch); err != nil {
			return fmt.Errorf("core: mark epoch %d in %s: %w", epoch, ns.Name, err)
		}
	}
	return nil
}

// OnReplicatedApply returns the follower OnApply callback that keeps a
// replica's derived in-memory state current as replicated segments
// land: consent directives, the audit chain head, and the catalog and
// policy sets are all rebuilt from the stores the stream just wrote.
// idmap and index reads go straight to their stores, so they need no
// refresh.
func (c *Controller) OnReplicatedApply() func(storeName string) {
	return func(storeName string) {
		var err error
		switch storeName {
		case "consent":
			err = c.con.Reload()
		case "audit":
			err = c.aud.Recover()
		case "catalog", "policies":
			err = c.reloadDerived()
		}
		if err != nil {
			telemetry.Logger().Error("repl: refresh after apply failed",
				"store", storeName, "err", err)
		}
	}
}

// Promote flips a read replica into the primary role at the given
// fencing epoch: the audit chain head and every derived in-memory view
// are recovered from the replicated stores, every replicated store is
// marked with the epoch, then write flows are accepted. The caller
// records the epoch in the shard map (the lease claim) and wires a
// replication.Primary shipping at it; a deposed primary still
// streaming at a lower epoch is fenced by the followers.
func (c *Controller) Promote(epoch uint64) error {
	if !c.replica.Load() {
		return ErrNotReplica
	}
	if err := c.aud.Recover(); err != nil {
		return err
	}
	if err := c.con.Reload(); err != nil {
		return err
	}
	if err := c.reloadDerived(); err != nil {
		return err
	}
	if err := c.MarkEpoch(epoch); err != nil {
		return err
	}
	c.replEpoch.Store(epoch)
	c.replica.Store(false)
	return nil
}

// reloadDerived re-syncs the registry and the policy set from the
// catalog and policy stores, tolerating entries that are already
// loaded — unlike the boot-time reload, it runs against live state (a
// replica refreshing after an applied segment, or a promotion), so
// duplicates are the common case, and policies deleted on the primary
// are revoked here too.
func (c *Controller) reloadDerived() error {
	if c.persist.catalog == nil {
		return nil
	}
	var rerr error
	err := c.persist.catalog.AscendPrefix("prod/", func(k string, v []byte) bool {
		if err := c.reg.RegisterProducer(event.ProducerID(strings.TrimPrefix(k, "prod/")), string(v)); err != nil && !registryDuplicate(err) {
			rerr = err
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	if rerr != nil {
		return rerr
	}
	err = c.persist.catalog.AscendPrefix("cons/", func(k string, v []byte) bool {
		if err := c.reg.RegisterConsumer(event.Actor(strings.TrimPrefix(k, "cons/")), string(v)); err != nil && !registryDuplicate(err) {
			rerr = err
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	if rerr != nil {
		return rerr
	}
	err = c.persist.catalog.AscendPrefix("class/", func(k string, v []byte) bool {
		sep := -1
		for i, b := range v {
			if b == 0 {
				sep = i
				break
			}
		}
		if sep < 0 {
			rerr = errors.New("core: corrupt class record " + k)
			return false
		}
		producer := event.ProducerID(v[:sep])
		s, err := schema.Decode(v[sep+1:])
		if err != nil {
			rerr = err
			return false
		}
		if err := c.reg.DeclareClass(producer, s); err != nil {
			// Identical re-declaration by the same owner is the steady
			// state of a refresh; anything else is real.
			if existing, gerr := c.reg.Class(s.Class()); gerr != nil ||
				existing.Producer != producer || existing.Schema.Version() != s.Version() {
				rerr = err
				return false
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	if rerr != nil {
		return rerr
	}

	if c.persist.policies == nil {
		return nil
	}
	present := make(map[policy.ID]bool)
	err = c.persist.policies.AscendPrefix("p/", func(k string, v []byte) bool {
		p, err := policy.Decode(v)
		if err != nil {
			rerr = err
			return false
		}
		present[p.ID] = true
		if _, err := c.enf.Repository().Get(p.ID); err == nil {
			return true // already installed
		}
		if _, err := c.enf.AddPolicy(p); err != nil {
			rerr = err
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	if rerr != nil {
		return rerr
	}
	// Policies revoked on the primary are gone from the replicated store;
	// drop them from the live PDP too.
	for _, p := range c.enf.Repository().All() {
		if !present[p.ID] {
			if err := c.enf.RemovePolicy(p.ID); err != nil {
				return err
			}
		}
	}
	return nil
}
