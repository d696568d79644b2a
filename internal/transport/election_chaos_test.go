package transport

// Self-healing failover chaos: a primary shipping to two replicas, each
// replica running an election manager over real campaign frames. The
// primary is killed mid-storm with no operator in the loop — the
// detectors must notice, exactly one replica must win a quorum and
// promote, acknowledged publishes must land exactly once on the winner,
// a deposed-epoch shipper must be fenced off, and the dead node's
// stores must rejoin byte-identically. A second storm cuts the
// candidate→voter links during the campaign window and demands zero
// promotions until the partition heals.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/election"
	"repro/internal/event"
	"repro/internal/index"
	"repro/internal/replication"
	"repro/internal/resilience"
	"repro/internal/schema"
)

// electionRig is one shard deployed for self-healing drills: a primary
// heartbeating WALs to two replicas, each replica campaigning through a
// partitionable dialer when the primary goes silent.
type electionRig struct {
	heartbeat time.Duration

	pri       *core.Controller
	priSrv    *httptest.Server
	priShip   *replication.Primary
	priStores []replication.NamedStore

	reps     [2]*core.Controller
	repSrvs  [2]*httptest.Server
	repURLs  [2]string
	stores   [2][]replication.NamedStore
	fols     [2]*replication.Follower
	mgrs     [2]*election.Manager
	shippers [2]atomic.Pointer[replication.Primary]

	part *resilience.Partitioner[net.Conn]
	v1   *cluster.Map
	// promotions records each auto-promotion as it happens (index, epoch).
	promoMu    sync.Mutex
	promotions []promotion
}

type promotion struct {
	replica int
	epoch   uint64
}

func newElectionRig(t *testing.T, seed int64) *electionRig {
	t.Helper()
	key := bytes.Repeat([]byte{7}, crypto.KeySize)
	rig := &electionRig{heartbeat: 20 * time.Millisecond}
	rig.part = resilience.NewPartitioner(func(addr string) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, 2*time.Second)
	})

	rig.priSrv = httptest.NewUnstartedServer(nil)
	srvA := httptest.NewUnstartedServer(nil)
	srvB := httptest.NewUnstartedServer(nil)
	rig.repSrvs = [2]*httptest.Server{srvA, srvB}
	priURL := "http://" + rig.priSrv.Listener.Addr().String()
	for i, s := range rig.repSrvs {
		rig.repURLs[i] = "http://" + s.Listener.Addr().String()
	}
	v1, err := cluster.NewMap(1, 0, []cluster.ShardInfo{
		{ID: 0, Addr: priURL, Replicas: rig.repURLs[:], Epoch: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.v1 = v1

	rig.pri, err = core.New(core.Config{
		DataDir: t.TempDir(), MasterKey: key, DefaultConsent: true,
		ShardID: 0, ShardMap: v1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rig.pri.Close() })
	for i := range rig.reps {
		rig.reps[i], err = core.New(core.Config{
			DataDir: t.TempDir(), MasterKey: key, DefaultConsent: true,
			Replica: true, ShardID: 0, ShardMap: v1,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep := rig.reps[i]
		t.Cleanup(func() { rep.Close() })
		rig.stores[i], err = rep.ReplStores()
		if err != nil {
			t.Fatal(err)
		}
		rig.fols[i], err = replication.NewFollower("127.0.0.1:0", replication.FollowerConfig{
			Stores: rig.stores[i], Epoch: 1, OnApply: rep.OnReplicatedApply(),
		})
		if err != nil {
			t.Fatal(err)
		}
		fol := rig.fols[i]
		t.Cleanup(func() { fol.Close() })
	}

	rig.priStores, err = rig.pri.ReplStores()
	if err != nil {
		t.Fatal(err)
	}
	rig.priShip, err = replication.NewPrimary(replication.PrimaryConfig{
		Stores: rig.priStores, Epoch: 1, Quorum: true, HeartbeatEvery: rig.heartbeat,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rig.priShip.Close() })
	rig.pri.AttachReplication(rig.priShip)
	for _, fol := range rig.fols {
		rig.priShip.AddFollower(fol.Addr())
	}

	// Election managers: each replica's electorate is the other replica;
	// cluster size 3 (the primary holds the third, non-voting-listener
	// seat), so a candidate needs its own durable claim plus the peer's
	// grant — a strict majority that one partitioned node can never fake.
	for i := range rig.reps {
		es, err := election.OpenEpochStore(filepath.Join(t.TempDir(), "election.epoch"))
		if err != nil {
			t.Fatal(err)
		}
		idx := i
		mgr, err := election.NewManager(election.Config{
			Peers:          []string{rig.fols[1-i].Addr()},
			ClusterSize:    3,
			HeartbeatEvery: rig.heartbeat,
			SuspectAfter:   300 * time.Millisecond,
			Phi:            4,
			LeaseFor:       400 * time.Millisecond,
			Backoff:        150 * time.Millisecond,
			Epochs:         es,
			CurrentEpoch:   rig.fols[i].Epoch,
			Offsets:        rig.fols[i].Offsets,
			Campaign: func(ctx context.Context, addr string, epoch uint64, cursors map[string]int64) (bool, uint64, error) {
				return replication.Campaign(ctx, rig.part.Dial, addr, epoch, cursors)
			},
			Promote:  func(epoch uint64) error { return rig.promote(idx, epoch) },
			Promoted: func() bool { return !rig.reps[idx].IsReplica() },
			Seed:     seed*2 + int64(i) + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mgr.Close)
		rig.mgrs[i] = mgr
		rig.fols[i].SetContactHook(mgr.Observe)
		rig.fols[i].SetVoteHook(mgr.Vote)
	}

	if err := rig.pri.RegisterProducer("hospital", "Hospital"); err != nil {
		t.Fatal(err)
	}
	if err := rig.pri.RegisterConsumer("family-doctor", "Doctors"); err != nil {
		t.Fatal(err)
	}
	if err := rig.pri.DeclareClass("hospital", schema.BloodTest()); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.pri.DefinePolicy(doctorBloodPolicy()); err != nil {
		t.Fatal(err)
	}

	rig.priSrv.Config = &http.Server{Handler: NewServer(rig.pri).SetReplication(rig.priShip)}
	rig.priSrv.Start()
	t.Cleanup(rig.priSrv.Close)
	for i, s := range rig.repSrvs {
		s.Config = &http.Server{Handler: NewServer(rig.reps[i]).SetFollower(rig.fols[i]).SetElection(rig.mgrs[i].Status)}
		s.Start()
		t.Cleanup(s.Close)
	}

	// Quorum mode already barriers every publish on a majority fsync,
	// but provisioning must reach BOTH replicas before the kill — either
	// may win the election.
	deadline := time.Now().Add(5 * time.Second)
	for {
		caught := true
		for i := range rig.fols {
			offs := rig.fols[i].Offsets()
			for _, ns := range rig.priStores {
				if offs[ns.Name] != ns.Store.WALOffset() {
					caught = false
				}
			}
		}
		if caught {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replicas never caught up with provisioning")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return rig
}

// promote is what a winning manager runs: fence, flip the controller,
// start shipping to the other replica with heartbeats, and install the
// successor map so stale clients can be rescued off this node.
func (rig *electionRig) promote(i int, epoch uint64) error {
	rig.fols[i].SetEpoch(epoch)
	if err := rig.reps[i].Promote(epoch); err != nil {
		return err
	}
	p, err := replication.NewPrimary(replication.PrimaryConfig{
		Stores: rig.stores[i], Epoch: epoch, Quorum: true, HeartbeatEvery: rig.heartbeat,
	})
	if err != nil {
		return err
	}
	p.AddFollower(rig.fols[1-i].Addr())
	rig.shippers[i].Store(p)
	rig.reps[i].AttachReplication(p)
	v2, err := rig.v1.WithPromotedReplica(0, rig.repURLs[i])
	if err != nil {
		return err
	}
	if err := rig.reps[i].AdoptMap(v2); err != nil {
		return err
	}
	rig.promoMu.Lock()
	rig.promotions = append(rig.promotions, promotion{replica: i, epoch: epoch})
	rig.promoMu.Unlock()
	return nil
}

func (rig *electionRig) snapshotPromotions() []promotion {
	rig.promoMu.Lock()
	defer rig.promoMu.Unlock()
	return append([]promotion(nil), rig.promotions...)
}

// kill takes the primary off the network and silences its heartbeats —
// the failure the managers must detect on their own.
func (rig *electionRig) kill() {
	rig.priSrv.CloseClientConnections()
	go rig.priSrv.Close()
	rig.priShip.Close()
}

// winner returns the final authority: the promoted replica at the
// highest epoch (sequential re-elections at distinct epochs are a
// liveness hiccup, not split-brain; the highest epoch owns the shard).
func (rig *electionRig) winner(t *testing.T) (int, uint64) {
	t.Helper()
	promos := rig.snapshotPromotions()
	if len(promos) == 0 {
		t.Fatal("no replica was promoted")
	}
	seen := map[uint64]int{}
	best := promos[0]
	for _, p := range promos {
		if prev, dup := seen[p.epoch]; dup && prev != p.replica {
			t.Fatalf("split brain: replicas %d and %d both promoted at epoch %d", prev, p.replica, p.epoch)
		}
		seen[p.epoch] = p.replica
		if p.epoch > best.epoch {
			best = p
		}
	}
	return best.replica, best.epoch
}

func (rig *electionRig) stormClient(t *testing.T, seed int64) *ShardedClient {
	t.Helper()
	fi := resilience.NewFaultInjector(nil, resilience.FaultConfig{
		Seed:           seed,
		ConnectFailure: 0.05,
		ServerError:    0.03,
	})
	sc, err := NewShardedClient(rig.v1, func(info cluster.ShardInfo) *Client {
		return NewClient(info.Addr, &http.Client{Transport: fi, Timeout: 5 * time.Second},
			WithRetrier(resilience.NewRetrier(resilience.RetryPolicy{
				MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Seed: seed,
			})))
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func electionNote(person string) *event.Notification {
	return &event.Notification{
		Producer: "hospital", SourceID: event.SourceID("src-" + person),
		Class: schema.ClassBloodTest, PersonID: person, Summary: "blood test",
		OccurredAt: time.Date(2010, 5, 30, 9, 0, 0, 0, time.UTC),
	}
}

// storm publishes one event per person through sc, retrying each until
// acknowledged, running killAt() before dispatching the middle one.
func electionStorm(t *testing.T, sc *ShardedClient, persons []string, killAt func()) {
	t.Helper()
	ctx := context.Background()
	idxCh := make(chan int)
	errCh := make(chan error, len(persons))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				deadline := time.Now().Add(60 * time.Second)
				for {
					_, err := sc.Publish(ctx, electionNote(persons[i]))
					if err == nil {
						break
					}
					if time.Now().After(deadline) {
						errCh <- fmt.Errorf("publish %s never acknowledged: %w", persons[i], err)
						break
					}
					time.Sleep(20 * time.Millisecond)
				}
			}
		}()
	}
	for i := range persons {
		if i == len(persons)/2 {
			killAt()
		}
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestChaosElectionFailover kills the primary mid-storm with no promote
// call anywhere. Acceptance: exactly one auto-elected winner per epoch,
// every acknowledged publish indexed exactly once on the final winner,
// a deposed-epoch shipper fenced off by the electorate, and the dead
// primary's stores rejoining byte-identical to the winner's.
func TestChaosElectionFailover(t *testing.T) {
	seeds := stormSeeds()
	if len(seeds) > 3 {
		seeds = seeds[:3]
	}
	for len(seeds) < 3 {
		seeds = append(seeds, seeds[len(seeds)-1]+1)
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rig := newElectionRig(t, seed)
			sc := rig.stormClient(t, seed)
			persons := make([]string, 20)
			for i := range persons {
				persons[i] = fmt.Sprintf("ELE-%03d", i)
			}
			electionStorm(t, sc, persons, rig.kill)

			win, epoch := rig.winner(t)
			winner := rig.reps[win]
			if epoch < 2 {
				t.Fatalf("winner at epoch %d, want >= 2", epoch)
			}
			if winner.IsReplica() || winner.ReplicationEpoch() != epoch {
				t.Fatalf("winner role: replica=%v epoch=%d, want primary at %d",
					winner.IsReplica(), winner.ReplicationEpoch(), epoch)
			}

			// Exactly-once on the winner, storm retries included.
			for _, person := range persons {
				notes, err := winner.InquireIndex("family-doctor", index.Inquiry{PersonID: person})
				if err != nil {
					t.Fatalf("inquire %s: %v", person, err)
				}
				if len(notes) != 1 {
					t.Errorf("winner holds %d events for %s, want exactly 1", len(notes), person)
				}
			}
			if n, err := winner.IndexLen(); err != nil || n != len(persons) {
				t.Errorf("winner index holds %d events (%v), want %d", n, err, len(persons))
			}
			if err := winner.Audit().Verify(); err != nil {
				t.Errorf("audit chain on the winner: %v", err)
			}

			// Zero split-brain: a shipper still claiming the dead epoch is
			// fenced at hello by the very followers that elected the winner.
			deposed, err := replication.NewPrimary(replication.PrimaryConfig{
				Stores: rig.priStores, Epoch: 1, Quorum: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			deposed.AddFollower(rig.fols[1-win].Addr())
			fenceWait := time.Now().Add(5 * time.Second)
			for !deposed.Fenced() {
				if time.Now().After(fenceWait) {
					t.Error("deposed-epoch shipper was never fenced")
					break
				}
				time.Sleep(10 * time.Millisecond)
			}
			deposed.Close()

			// Rejoin: the dead node's stores — including any unreplicated
			// old-epoch suffix — come back as a follower and converge to
			// the winner's bytes.
			rig.priStores[0].Store.Put("rogue-unreplicated", []byte("old-epoch suffix"))
			rejoin, err := replication.NewFollower("127.0.0.1:0", replication.FollowerConfig{
				Stores: rig.priStores, Epoch: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rejoin.Close()
			ship := rig.shippers[win].Load()
			if ship == nil {
				t.Fatal("winner has no shipper")
			}
			defer ship.Close()
			ship.AddFollower(rejoin.Addr())
			catchUp := time.Now().Add(10 * time.Second)
			for {
				same := true
				for si, ns := range rig.stores[win] {
					w := ns.Store
					r := rig.priStores[si].Store
					if r.WALOffset() != w.WALOffset() {
						same = false
						break
					}
					wb, err1 := w.ReadWAL(w.WALGen(), 0, 1<<30)
					rb, err2 := r.ReadWAL(r.WALGen(), 0, 1<<30)
					if err1 != nil || err2 != nil || !bytes.Equal(wb, rb) {
						same = false
						break
					}
				}
				if same {
					break
				}
				if time.Now().After(catchUp) {
					t.Fatal("rejoined node never converged to the winner's bytes")
				}
				time.Sleep(10 * time.Millisecond)
			}
			if v, ok, _ := rig.priStores[0].Store.Get("rogue-unreplicated"); ok {
				t.Errorf("old-epoch suffix %q survived the rejoin", v)
			}
		})
	}
}

// TestChaosElectionPartitionedCampaign cuts the candidate→voter links
// at the moment the primary dies: no candidate can reach a quorum, so
// there must be zero promotions while the partition holds — a minority
// node must never elect itself — and exactly one winner once it heals.
func TestChaosElectionPartitionedCampaign(t *testing.T) {
	seeds := stormSeeds()
	if len(seeds) > 3 {
		seeds = seeds[:3]
	}
	for len(seeds) < 3 {
		seeds = append(seeds, seeds[len(seeds)-1]+1)
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rig := newElectionRig(t, seed)
			sc := rig.stormClient(t, seed)
			persons := make([]string, 16)
			for i := range persons {
				persons[i] = fmt.Sprintf("PRT-%03d", i)
			}

			healed := make(chan struct{})
			kill := func() {
				// Partition first, then kill: every campaign triggered by
				// the death runs into the cut links.
				rig.part.Block(rig.fols[0].Addr(), rig.fols[1].Addr())
				rig.kill()
				go func() {
					defer close(healed)
					// Hold the partition across several campaign rounds.
					time.Sleep(1500 * time.Millisecond)
					if got := rig.snapshotPromotions(); len(got) != 0 {
						t.Errorf("%d promotions during the partition, want 0 (minority self-election)", len(got))
					}
					rig.part.Heal(rig.fols[0].Addr(), rig.fols[1].Addr())
				}()
			}
			electionStorm(t, sc, persons, kill)
			<-healed

			win, epoch := rig.winner(t)
			winner := rig.reps[win]
			if winner.IsReplica() || winner.ReplicationEpoch() != epoch {
				t.Fatalf("winner role: replica=%v epoch=%d, want primary at %d",
					winner.IsReplica(), winner.ReplicationEpoch(), epoch)
			}
			for _, person := range persons {
				notes, err := winner.InquireIndex("family-doctor", index.Inquiry{PersonID: person})
				if err != nil {
					t.Fatalf("inquire %s: %v", person, err)
				}
				if len(notes) != 1 {
					t.Errorf("winner holds %d events for %s, want exactly 1", len(notes), person)
				}
			}
			if err := winner.Audit().Verify(); err != nil {
				t.Errorf("audit chain on the winner: %v", err)
			}
		})
	}
}
