package replication

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// walBytes reads one store's whole log — the byte-identity witness.
func walBytes(t *testing.T, ns NamedStore) []byte {
	t.Helper()
	b, err := ns.Store.ReadWAL(ns.Store.WALGen(), 0, 1<<30)
	if err != nil {
		t.Fatalf("%s wal: %v", ns.Name, err)
	}
	return b
}

// markAll writes an epoch marker into every store, as a node that
// starts writing at that epoch does.
func markAll(t *testing.T, ns []NamedStore, epoch uint64) {
	t.Helper()
	for _, s := range ns {
		if err := s.Store.MarkEpoch(epoch); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRejoinTruncatesDivergedPrimary is the deposed-primary round trip:
// the old primary keeps writing after its last shipped frame (an
// unreplicated old-epoch suffix), the follower is promoted and takes
// new writes, and when the deposed node reconnects as a follower the
// new primary locates the divergence, orders a truncate back to the
// common prefix, and re-ships until the logs are byte-identical.
func TestRejoinTruncatesDivergedPrimary(t *testing.T) {
	dir := t.TempDir()
	ps := openStores(t, filepath.Join(dir, "p"))
	fs := openStores(t, filepath.Join(dir, "f"))

	fol, err := NewFollower("127.0.0.1:0", FollowerConfig{Stores: fs, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	pri, err := NewPrimary(PrimaryConfig{Stores: ps, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	markAll(t, ps, 1)
	pri.AddFollower(fol.Addr())
	for i := 0; i < 10; i++ {
		ps[0].Store.Put(fmt.Sprintf("id-%03d", i), []byte("shared"))
		ps[2].Store.Put(fmt.Sprintf("a-%03d", i), []byte("audit"))
	}
	waitCaughtUp(t, ps, fs, 5*time.Second)

	// The primary "crashes": shipping stops, but the process wrote a
	// little more that never reached the follower.
	pri.Close()
	ps[0].Store.Put("rogue-id", []byte("unreplicated"))
	ps[2].Store.Put("rogue-audit", []byte("unreplicated"))

	// Failover: the follower becomes the primary at the next epoch and
	// takes new writes, so the histories genuinely diverge.
	fol.Close()
	newPri, err := NewPrimary(PrimaryConfig{Stores: fs, Epoch: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer newPri.Close()
	markAll(t, fs, 2)
	fs[0].Store.Put("post-failover", []byte("new-history"))
	fs[2].Store.Put("post-failover-audit", []byte("new-history"))

	// The deposed primary restarts as a follower at its old epoch and
	// rejoins.
	rejoin, err := NewFollower("127.0.0.1:0", FollowerConfig{Stores: ps, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rejoin.Close()
	newPri.AddFollower(rejoin.Addr())

	waitCaughtUp(t, fs, ps, 5*time.Second)
	for i := range fs {
		if !bytes.Equal(walBytes(t, ps[i]), walBytes(t, fs[i])) {
			t.Fatalf("%s logs differ after rejoin", fs[i].Name)
		}
	}
	if _, ok := get(t, ps, "idmap", "rogue-id"); ok {
		t.Fatal("unreplicated old-epoch suffix survived the rejoin")
	}
	if v, ok := get(t, ps, "idmap", "post-failover"); !ok || v != "new-history" {
		t.Fatalf("rejoined node missing new history: %q %v", v, ok)
	}
	if v, ok := get(t, ps, "idmap", "id-007"); !ok || v != "shared" {
		t.Fatalf("rejoined node lost the common prefix: %q %v", v, ok)
	}
	if rejoin.Epoch() != 2 {
		t.Fatalf("rejoined node at epoch %d, want 2", rejoin.Epoch())
	}
}

// TestGracefulDrainCheckpointsOffsets is the satellite-2 regression: a
// follower closed gracefully must fsync its applied offsets, so a
// reopened store resumes from exactly where replication stopped instead
// of re-requesting durably applied frames.
func TestGracefulDrainCheckpointsOffsets(t *testing.T) {
	dir := t.TempDir()
	ps := openStores(t, filepath.Join(dir, "p"))
	fdir := filepath.Join(dir, "f")
	fs := openStores(t, fdir)

	fol, err := NewFollower("127.0.0.1:0", FollowerConfig{Stores: fs, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	pri, err := NewPrimary(PrimaryConfig{Stores: ps, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pri.Close()
	pri.AddFollower(fol.Addr())
	for i := 0; i < 25; i++ {
		ps[0].Store.Put(fmt.Sprintf("k-%03d", i), []byte("v"))
	}
	waitCaughtUp(t, ps, fs, 5*time.Second)

	// Graceful drain: Close must leave the durable checkpoint equal to
	// the applied offset on every store.
	if err := fol.Close(); err != nil {
		t.Fatal(err)
	}
	for _, ns := range fs {
		if synced, off := ns.Store.WALSynced(), ns.Store.WALOffset(); synced != off {
			t.Fatalf("%s: synced %d != applied %d after graceful drain", ns.Name, synced, off)
		}
	}

	// Crash-restart: reopen the data directory; the announced cursor
	// must resume at the applied offset (nothing is re-requested).
	wantOffset := fs[0].Store.WALOffset()
	for _, ns := range fs {
		ns.Store.Close()
	}
	re, err := NewFollower("127.0.0.1:0", FollowerConfig{Stores: openStores(t, fdir), Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Offsets()["idmap"]; got != wantOffset {
		t.Fatalf("restarted follower announces idmap offset %d, want %d", got, wantOffset)
	}
}

// TestHeartbeatsFeedContactHook: a primary with HeartbeatEvery set
// keeps the follower's contact hook firing even with zero writes.
func TestHeartbeatsFeedContactHook(t *testing.T) {
	dir := t.TempDir()
	ps := openStores(t, filepath.Join(dir, "p"))
	fs := openStores(t, filepath.Join(dir, "f"))

	var contacts atomic.Int64
	fol, err := NewFollower("127.0.0.1:0", FollowerConfig{Stores: fs, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	fol.SetContactHook(func(epoch uint64) {
		if epoch != 1 {
			t.Errorf("heartbeat at epoch %d, want 1", epoch)
		}
		contacts.Add(1)
	})

	pri, err := NewPrimary(PrimaryConfig{Stores: ps, Epoch: 1, HeartbeatEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer pri.Close()
	pri.AddFollower(fol.Addr())

	deadline := time.Now().Add(5 * time.Second)
	for contacts.Load() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d heartbeats in 5s", contacts.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCampaignVoting covers the epoch-fencing election edge cases at
// the wire level (satellite 3): a deposed primary campaigning with its
// old epoch, simultaneous candidates at equal epochs, a candidate with
// stale cursors, and a follower with no vote hook must all lose
// deterministically.
func TestCampaignVoting(t *testing.T) {
	newVoter := func(t *testing.T, epoch uint64, seedKeys int) (*Follower, []NamedStore) {
		t.Helper()
		fs := openStores(t, t.TempDir())
		for i := 0; i < seedKeys; i++ {
			fs[0].Store.Put(fmt.Sprintf("seed-%03d", i), []byte("x"))
		}
		fol, err := NewFollower("127.0.0.1:0", FollowerConfig{Stores: fs, Epoch: epoch})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fol.Close() })
		return fol, fs
	}
	// grantAll is a vote hook with the EpochStore's raise-only promise
	// semantics, in memory.
	grantAll := func() func(uint64) bool {
		var mu sync.Mutex
		var promised uint64
		return func(e uint64) bool {
			mu.Lock()
			defer mu.Unlock()
			if e <= promised {
				return false
			}
			promised = e
			return true
		}
	}
	ctx := context.Background()
	caughtUp := func(fol *Follower) map[string]int64 { return fol.Offsets() }

	t.Run("deposed primary with old epoch loses", func(t *testing.T) {
		fol, _ := newVoter(t, 5, 0)
		fol.SetVoteHook(grantAll())
		for _, epoch := range []uint64{4, 5} {
			granted, voterEpoch, err := Campaign(ctx, nil, fol.Addr(), epoch, caughtUp(fol))
			if err != nil {
				t.Fatal(err)
			}
			if granted {
				t.Fatalf("voter at epoch 5 granted epoch %d", epoch)
			}
			if voterEpoch != 5 {
				t.Fatalf("voter reports epoch %d, want 5", voterEpoch)
			}
		}
		if granted, _, err := Campaign(ctx, nil, fol.Addr(), 6, caughtUp(fol)); err != nil || !granted {
			t.Fatalf("epoch 6 campaign = %v, %v; want granted", granted, err)
		}
	})

	t.Run("simultaneous candidates at equal epochs get one grant", func(t *testing.T) {
		fol, _ := newVoter(t, 1, 0)
		fol.SetVoteHook(grantAll())
		const candidates = 4
		var granted atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < candidates; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				g, _, err := Campaign(ctx, nil, fol.Addr(), 2, caughtUp(fol))
				if err != nil {
					t.Error(err)
					return
				}
				if g {
					granted.Add(1)
				}
			}()
		}
		wg.Wait()
		if granted.Load() != 1 {
			t.Fatalf("%d grants for epoch 2, want exactly 1", granted.Load())
		}
		if fol.Epoch() != 2 {
			t.Fatalf("voter epoch %d after granting 2, want 2", fol.Epoch())
		}
	})

	t.Run("stale candidate cursors are denied", func(t *testing.T) {
		fol, fs := newVoter(t, 1, 10)
		fol.SetVoteHook(grantAll())
		stale := map[string]int64{"idmap": 0, "index": 0, "audit": 0}
		granted, _, err := Campaign(ctx, nil, fol.Addr(), 2, stale)
		if err != nil {
			t.Fatal(err)
		}
		if granted {
			t.Fatal("voter granted a candidate whose log is behind its own")
		}
		// The same claim with caught-up cursors wins.
		upToDate := map[string]int64{
			"idmap": fs[0].Store.WALOffset(),
			"index": fs[1].Store.WALOffset(),
			"audit": fs[2].Store.WALOffset(),
		}
		if granted, _, err := Campaign(ctx, nil, fol.Addr(), 2, upToDate); err != nil || !granted {
			t.Fatalf("caught-up campaign = %v, %v; want granted", granted, err)
		}
	})

	t.Run("no vote hook denies everything", func(t *testing.T) {
		fol, _ := newVoter(t, 1, 0)
		if granted, _, err := Campaign(ctx, nil, fol.Addr(), 99, caughtUp(fol)); err != nil || granted {
			t.Fatalf("hookless voter granted = %v, %v; want deny", granted, err)
		}
		if fol.Epoch() != 1 {
			t.Fatalf("denied campaign raised voter epoch to %d", fol.Epoch())
		}
	})
}
