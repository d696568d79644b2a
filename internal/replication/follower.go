package replication

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/store"
	"repro/internal/telemetry"
)

// FollowerConfig configures the applying side.
type FollowerConfig struct {
	// Stores to apply into, in the same order as the primary's.
	Stores []NamedStore
	// Epoch is the highest primary epoch this follower has seen; data
	// frames stamped lower are denied (fencing).
	Epoch uint64
	// OnApply, when set, runs after every applied segment with the
	// store's name — the controller refreshes derived in-memory state
	// (consent directives, catalog, policies) here.
	OnApply func(storeName string)
	// Metrics registers css_repl_* instruments when set.
	Metrics *telemetry.Registry
	// Logf receives replication lifecycle events; nil discards them.
	Logf func(format string, args ...any)
}

// Follower listens for a primary's replication stream and applies the
// shipped WAL segments into its local stores, fsyncing before every
// acknowledgement. It holds the node's fencing epoch: a frame from an
// older epoch is denied and the connection dropped. It is also the
// election endpoint: a candidate dials the same listener, reads the
// hello, and sends a campaign frame; whether the vote is granted is
// decided by the hook the election manager installs.
type Follower struct {
	cfg   FollowerConfig
	ln    net.Listener
	epoch atomic.Uint64
	logf  func(format string, args ...any)

	// contact is invoked (when installed) every time a live primary at
	// an acceptable epoch is heard from — heartbeat or data frame. The
	// election manager's failure detector samples arrivals through it.
	contact atomic.Pointer[func(epoch uint64)]
	// vote decides a campaign after the follower's own up-to-date check
	// passed: it must durably persist the promised epoch before
	// returning true. Nil (never installed) denies every campaign.
	vote atomic.Pointer[func(epoch uint64) bool]

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	applied    *telemetry.Counter
	fenced     *telemetry.Counter
	epochGauge *telemetry.Gauge
	truncates  *telemetry.Counter
}

// NewFollower listens on addr (host:port, port 0 for ephemeral) and
// serves replication connections until Close.
func NewFollower(addr string, cfg FollowerConfig) (*Follower, error) {
	if len(cfg.Stores) == 0 {
		return nil, errors.New("replication: follower needs at least one store")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("replication: listen %s: %w", addr, err)
	}
	f := &Follower{cfg: cfg, ln: ln, logf: cfg.Logf, conns: make(map[net.Conn]struct{})}
	f.epoch.Store(cfg.Epoch)
	if f.logf == nil {
		f.logf = func(string, ...any) {}
	}
	if m := cfg.Metrics; m != nil {
		f.applied = m.Counter("css_repl_applied_bytes_total", "Replicated WAL bytes applied, per store.", "store")
		f.fenced = m.Counter("css_repl_fenced_total", "Frames or connections rejected for a stale epoch.")
		f.epochGauge = m.Gauge("css_repl_epoch", "Fencing epoch this node ships or applies under.")
		f.epochGauge.Set(float64(cfg.Epoch))
		f.truncates = m.Counter("css_repl_truncates_total", "WAL truncations performed while rejoining as follower.")
	}
	f.wg.Add(1)
	go f.acceptLoop()
	return f, nil
}

// Addr returns the bound listen address (for -replicate-to flags and
// test wiring).
func (f *Follower) Addr() string { return f.ln.Addr().String() }

// Epoch returns the highest primary epoch seen.
func (f *Follower) Epoch() uint64 { return f.epoch.Load() }

// SetEpoch raises the fencing epoch — promotion calls this on the
// surviving followers (directly or via the promoted primary's first
// frame) so the deposed primary is denied everywhere.
func (f *Follower) SetEpoch(e uint64) {
	for {
		cur := f.epoch.Load()
		if e <= cur || f.epoch.CompareAndSwap(cur, e) {
			break
		}
	}
	if f.epochGauge != nil {
		f.epochGauge.Set(float64(f.epoch.Load()))
	}
}

// SetContactHook installs fn to be called on every heartbeat or data
// frame from a primary holding an acceptable epoch — the failure
// detector's sample source. Pass nil to uninstall.
func (f *Follower) SetContactHook(fn func(epoch uint64)) {
	if fn == nil {
		f.contact.Store(nil)
		return
	}
	f.contact.Store(&fn)
}

// SetVoteHook installs the campaign decision. The hook runs after the
// follower's own checks (candidate epoch strictly above the current
// fencing epoch, candidate cursors at or past this node's on every
// store); it must durably persist the promised epoch before returning
// true. While no hook is installed every campaign is denied, so a
// non-electing deployment never grants votes.
func (f *Follower) SetVoteHook(fn func(epoch uint64) bool) {
	if fn == nil {
		f.vote.Store(nil)
		return
	}
	f.vote.Store(&fn)
}

// Offsets snapshots the per-store WAL offsets — the catch-up cursor
// this follower would announce, and the measure of "most caught up"
// during failover.
func (f *Follower) Offsets() map[string]int64 {
	out := make(map[string]int64, len(f.cfg.Stores))
	for _, ns := range f.cfg.Stores {
		out[ns.Name] = ns.Store.WALOffset()
	}
	return out
}

func (f *Follower) acceptLoop() {
	defer f.wg.Done()
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return // listener closed
		}
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			conn.Close()
			return
		}
		f.conns[conn] = struct{}{}
		f.wg.Add(1)
		f.mu.Unlock()
		go func() {
			defer f.wg.Done()
			err := f.handleConn(conn)
			conn.Close()
			f.mu.Lock()
			delete(f.conns, conn)
			f.mu.Unlock()
			if err != nil && !errors.Is(err, net.ErrClosed) {
				f.logf("repl: primary %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// noteContact feeds the failure detector, if one is listening.
func (f *Follower) noteContact(epoch uint64) {
	if fn := f.contact.Load(); fn != nil {
		(*fn)(epoch)
	}
}

// checkEpoch applies the fencing rule to an incoming frame: deny and
// drop anything below the current epoch, adopt anything above it.
// Returns an error when the connection must be closed.
func (f *Follower) checkEpoch(conn net.Conn, epoch uint64) error {
	cur := f.epoch.Load()
	if epoch < cur {
		if f.fenced != nil {
			f.fenced.Inc()
		}
		writeMsg(conn, encodeDeny(cur))
		return fmt.Errorf("denied stale epoch %d (holding %d)", epoch, cur)
	}
	if epoch > cur {
		f.SetEpoch(epoch)
	}
	return nil
}

// handleConn serves one primary (or candidate) connection: announce
// cursors with epoch histories, then dispatch frames. A healthy primary
// sends sync-start and streams data; a primary that found this node's
// log ran past the common prefix (a rejoining deposed primary) first
// orders a truncate; a candidate sends one campaign frame and reads the
// grant.
func (f *Follower) handleConn(conn net.Conn) error {
	offsets := make([]storeOffset, len(f.cfg.Stores))
	for i, ns := range f.cfg.Stores {
		offsets[i] = storeOffset{name: ns.Name, offset: ns.Store.WALOffset(), history: ns.Store.EpochHistory()}
	}
	if err := writeMsg(conn, encodeHello(f.epoch.Load(), offsets)); err != nil {
		return fmt.Errorf("hello: %w", err)
	}

	br := bufio.NewReader(conn)
	touched := make(map[int]struct{})
	for {
		// Batch the fsync+ack over every frame already buffered (under a
		// storm one fsync covers many segments), and flush once the
		// buffer drains, whatever frame came last.
		if len(touched) > 0 && br.Buffered() == 0 {
			for i := range touched {
				ns := f.cfg.Stores[i]
				if err := ns.Store.SyncWAL(); err != nil {
					return err
				}
				if err := writeMsg(conn, encodeAck(ns.Name, ns.Store.WALOffset())); err != nil {
					return err
				}
			}
			clear(touched)
		}
		msg, err := readMsg(br)
		if err != nil {
			return err
		}
		switch frameKind(msg) {
		case FrameSyncStart:
			if err := decodeSyncStart(msg); err != nil {
				return err
			}
			// Certify the (possibly truncated) prefix: fsync and ack every
			// store once, so quorum accounting on the primary starts from
			// the true durable state instead of waiting for each store's
			// next write.
			for i := range f.cfg.Stores {
				touched[i] = struct{}{}
			}

		case FrameHeartbeat:
			epoch, err := decodeHeartbeat(msg)
			if err != nil {
				return err
			}
			if err := f.checkEpoch(conn, epoch); err != nil {
				return err
			}
			f.noteContact(epoch)

		case FrameCampaign:
			epoch, theirs, err := decodeCampaign(msg)
			if err != nil {
				return err
			}
			granted := f.decideVote(epoch, theirs)
			if err := writeMsg(conn, encodeGrant(granted, f.epoch.Load())); err != nil {
				return err
			}

		case FrameTruncate:
			name, offset, err := decodeTruncate(msg)
			if err != nil {
				return err
			}
			st := f.storeNamed(name)
			if st == nil {
				return fmt.Errorf("truncate for unknown store %q", name)
			}
			f.logf("repl: truncating %s back to %d (diverged old-epoch suffix)", name, offset)
			if err := st.TruncateWAL(offset); err != nil {
				return fmt.Errorf("truncate %s to %d: %w", name, offset, err)
			}
			if f.truncates != nil {
				f.truncates.Inc()
			}
			if f.cfg.OnApply != nil {
				f.cfg.OnApply(name)
			}
			if err := writeMsg(conn, encodeAck(name, offset)); err != nil {
				return err
			}

		case FrameData:
			name, epoch, offset, seg, err := decodeData(msg)
			if err != nil {
				return fmt.Errorf("data: %w", err)
			}
			if err := f.checkEpoch(conn, epoch); err != nil {
				return err
			}
			f.noteContact(epoch)
			idx := -1
			for i, ns := range f.cfg.Stores {
				if ns.Name == name {
					idx = i
					break
				}
			}
			if idx < 0 {
				return fmt.Errorf("data for unknown store %q", name)
			}
			if _, err := f.cfg.Stores[idx].Store.ApplyWALSegment(offset, seg); err != nil {
				return fmt.Errorf("apply %s at %d: %w", name, offset, err)
			}
			if f.applied != nil {
				f.applied.Add(uint64(len(seg)), name)
			}
			if f.cfg.OnApply != nil {
				f.cfg.OnApply(name)
			}
			touched[idx] = struct{}{}

		default:
			return fmt.Errorf("unexpected frame type %d", frameKind(msg))
		}
	}
}

// decideVote applies the election rules to one campaign: the candidate
// must claim an epoch strictly above this node's fencing epoch (a
// deposed primary re-campaigning with its old epoch always loses), its
// cursors must be at or past this node's on every store (a stale
// replica can never be elected over a more caught-up voter), and the
// installed vote hook must durably persist the promise. Granting raises
// the fencing epoch to the promised one, so a second candidate at the
// same epoch is denied — at most one grant per epoch per voter.
func (f *Follower) decideVote(epoch uint64, theirs []storeOffset) bool {
	cur := f.epoch.Load()
	if epoch <= cur {
		if f.fenced != nil {
			f.fenced.Inc()
		}
		f.logf("repl: denying campaign at epoch %d (holding %d)", epoch, cur)
		return false
	}
	cursor := make(map[string]int64, len(theirs))
	for _, o := range theirs {
		cursor[o.name] = o.offset
	}
	for _, ns := range f.cfg.Stores {
		if cursor[ns.Name] < ns.Store.WALOffset() {
			f.logf("repl: denying campaign at epoch %d: candidate %s cursor %d behind ours %d",
				epoch, ns.Name, cursor[ns.Name], ns.Store.WALOffset())
			return false
		}
	}
	hook := f.vote.Load()
	if hook == nil {
		f.logf("repl: denying campaign at epoch %d: no vote hook installed", epoch)
		return false
	}
	if !(*hook)(epoch) {
		return false
	}
	// The promise is durable; fence everything below it.
	f.SetEpoch(epoch)
	f.logf("repl: granted epoch %d", epoch)
	return true
}

// storeNamed finds a replicated store by name, nil when unknown.
func (f *Follower) storeNamed(name string) *store.Store {
	for _, ns := range f.cfg.Stores {
		if ns.Name == name {
			return ns.Store
		}
	}
	return nil
}

// Close stops accepting, drops every primary connection, and fsyncs
// each store so the applied-offset checkpoint survives the restart — a
// gracefully drained follower must never re-request frames it already
// durably applied. Idempotent.
func (f *Follower) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	for c := range f.conns {
		c.Close()
	}
	f.mu.Unlock()
	err := f.ln.Close()
	f.wg.Wait()
	for _, ns := range f.cfg.Stores {
		if serr := ns.Store.SyncWAL(); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}
