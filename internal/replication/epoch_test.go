package replication

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/telemetry"
)

// tapConn records every byte a primary writes to and reads from one
// follower link, so a test can count the frames each side sent.
type tapConn struct {
	net.Conn
	mu          sync.Mutex
	wrote, read bytes.Buffer
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.wrote.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.read.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

// frames splits a recorded stream into its frame types.
func (c *tapConn) frames(wrote bool) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.read.Bytes()
	if wrote {
		b = c.wrote.Bytes()
	}
	var kinds []byte
	for len(b) >= 4 {
		n := int(binary.LittleEndian.Uint32(b))
		if len(b) < 4+n {
			break
		}
		kinds = append(kinds, byte(frameKind(b[4:4+n])))
		b = b[4+n:]
	}
	return kinds
}

// tapDialer is a PrimaryConfig.Dial that keeps every connection it made.
type tapDialer struct {
	mu    sync.Mutex
	conns []*tapConn
}

func (d *tapDialer) dial(addr string) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Conn: c}
	d.mu.Lock()
	d.conns = append(d.conns, tc)
	d.mu.Unlock()
	return tc, nil
}

func (d *tapDialer) last(t *testing.T, n int) *tapConn {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		d.mu.Lock()
		if len(d.conns) >= n {
			c := d.conns[n-1]
			d.mu.Unlock()
			return c
		}
		d.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("connection %d never dialed", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func assertSameLogs(t *testing.T, want, got []NamedStore) {
	t.Helper()
	for i := range want {
		if !bytes.Equal(walBytes(t, want[i]), walBytes(t, got[i])) {
			t.Fatalf("%s logs differ", want[i].Name)
		}
		if w, g := want[i].Store.EpochHistory(), got[i].Store.EpochHistory(); fmt.Sprint(w) != fmt.Sprint(g) {
			t.Fatalf("%s epoch histories differ: %v vs %v", want[i].Name, w, g)
		}
	}
}

// TestRejoinNeverShippedEpoch: a node self-promoted at epoch 2, marked
// its stores and wrote, then died before shipping anything. The epoch-3
// winner never saw epoch 2. When the deposed node rejoins, it must be
// truncated back to the end of epoch 1 (the last shared epoch) and then
// converge byte for byte, markers included.
func TestRejoinNeverShippedEpoch(t *testing.T) {
	dir := t.TempDir()
	p1 := openStores(t, filepath.Join(dir, "p1"))
	xs := openStores(t, filepath.Join(dir, "x"))
	ys := openStores(t, filepath.Join(dir, "y"))

	fx, err := NewFollower("127.0.0.1:0", FollowerConfig{Stores: xs, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	fy, err := NewFollower("127.0.0.1:0", FollowerConfig{Stores: ys, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fy.Close()
	markAll(t, p1, 1)
	pri, err := NewPrimary(PrimaryConfig{Stores: p1, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	pri.AddFollower(fx.Addr())
	pri.AddFollower(fy.Addr())
	for i := 0; i < 20; i++ {
		p1[0].Store.Put(fmt.Sprintf("id-%03d", i), []byte("epoch-1"))
		p1[2].Store.Put(fmt.Sprintf("a-%03d", i), []byte("epoch-1"))
	}
	waitCaughtUp(t, p1, xs, 5*time.Second)
	waitCaughtUp(t, p1, ys, 5*time.Second)
	pri.Close()
	fx.Close()
	fy.Close()
	epoch1End := make([]int64, len(xs))
	for i, ns := range xs {
		epoch1End[i] = ns.Store.WALOffset()
	}

	// x self-promotes at epoch 2 and writes, but ships nothing.
	markAll(t, xs, 2)
	xs[0].Store.Put("x-only", []byte("never shipped"))
	xs[2].Store.Put("x-only-audit", []byte("never shipped"))

	// y wins epoch 3 without ever seeing epoch 2.
	markAll(t, ys, 3)
	ys[0].Store.Put("y-new", []byte("epoch-3"))
	d := &tapDialer{}
	newPri, err := NewPrimary(PrimaryConfig{Stores: ys, Epoch: 3, Dial: d.dial})
	if err != nil {
		t.Fatal(err)
	}
	defer newPri.Close()

	reg := telemetry.NewRegistry()
	rejoin, err := NewFollower("127.0.0.1:0", FollowerConfig{Stores: xs, Epoch: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer rejoin.Close()
	newPri.AddFollower(rejoin.Addr())
	waitCaughtUp(t, ys, xs, 5*time.Second)
	assertSameLogs(t, ys, xs)

	if _, ok := get(t, xs, "idmap", "x-only"); ok {
		t.Fatal("never-shipped epoch-2 write survived the rejoin")
	}
	if v, ok := get(t, xs, "idmap", "y-new"); !ok || v != "epoch-3" {
		t.Fatalf("rejoined node missing epoch-3 history: %q %v", v, ok)
	}
	// Every store was cut exactly at the end of epoch 1.
	b := d.last(t, 1).frames(true)
	var truncates int
	for _, k := range b {
		if k == byte(FrameTruncate) {
			truncates++
		}
	}
	if truncates != 3 {
		t.Fatalf("%d truncates ordered, want one per store (frames %v)", truncates, b)
	}
	for i, ns := range xs {
		h := ns.Store.EpochHistory()
		if len(h) != 2 || h[0].Epoch != 1 || h[1].Epoch != 3 || h[1].Offset != epoch1End[i] {
			t.Fatalf("%s history after rejoin = %v, want epoch 3 at the end of epoch 1 (%d)", ns.Name, h, epoch1End[i])
		}
	}
	if got := reg.Counter("css_repl_truncates_total", "").Value(); got != 3 {
		t.Fatalf("css_repl_truncates_total = %d, want 3", got)
	}
}

// TestCleanReconnectOrdersNoTruncate: a follower whose link dropped is
// a clean prefix of the primary's log; reconnecting resumes at its
// offset with zero truncates.
func TestCleanReconnectOrdersNoTruncate(t *testing.T) {
	dir := t.TempDir()
	ps := openStores(t, filepath.Join(dir, "p"))
	fs := openStores(t, filepath.Join(dir, "f"))
	reg := telemetry.NewRegistry()
	fol, err := NewFollower("127.0.0.1:0", FollowerConfig{Stores: fs, Epoch: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	markAll(t, ps, 1)
	d := &tapDialer{}
	pri, err := NewPrimary(PrimaryConfig{Stores: ps, Epoch: 1, Dial: d.dial})
	if err != nil {
		t.Fatal(err)
	}
	defer pri.Close()
	pri.AddFollower(fol.Addr())
	for i := 0; i < 50; i++ {
		ps[0].Store.Put(fmt.Sprintf("k-%03d", i), []byte("before"))
	}
	waitCaughtUp(t, ps, fs, 5*time.Second)

	d.last(t, 1).Close() // drop the link
	for i := 0; i < 50; i++ {
		ps[0].Store.Put(fmt.Sprintf("k-%03d", i), []byte("after"))
	}
	d.last(t, 2)
	waitCaughtUp(t, ps, fs, 5*time.Second)
	assertSameLogs(t, ps, fs)
	if got := reg.Counter("css_repl_truncates_total", "").Value(); got != 0 {
		t.Fatalf("clean reconnect ordered %d truncates", got)
	}
}

// TestRejoinAfterPrimaryLostTail: the primary ships bytes it has not
// fsynced (the stores run with SyncEvery off, as the daemon does by
// default), then crashes and loses that tail while its follower keeps
// it. Restarted at the same epoch it marks a new incarnation and writes
// different records over the lost offsets and past the follower's end.
// The reconnecting follower must be truncated back to the restart
// marker and converge byte for byte.
func TestRejoinAfterPrimaryLostTail(t *testing.T) {
	dir := t.TempDir()
	ps := openStores(t, filepath.Join(dir, "p"))
	fs := openStores(t, filepath.Join(dir, "f"))
	reg := telemetry.NewRegistry()
	fol, err := NewFollower("127.0.0.1:0", FollowerConfig{Stores: fs, Epoch: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	markAll(t, ps, 1)
	pri, err := NewPrimary(PrimaryConfig{Stores: ps, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	pri.AddFollower(fol.Addr())
	var lostAt int64
	for i := 0; i < 40; i++ {
		if i == 20 {
			lostAt = ps[0].Store.WALOffset()
		}
		ps[0].Store.Put(fmt.Sprintf("k-%03d", i), []byte("first incarnation"))
	}
	waitCaughtUp(t, ps, fs, 5*time.Second)
	pri.Close()
	fol.Close()

	// The crash loses everything past lostAt that the follower holds.
	heldEnd := fs[0].Store.WALOffset()
	if err := ps[0].Store.TruncateWAL(lostAt); err != nil {
		t.Fatal(err)
	}
	markAll(t, ps, 1) // boot as primary at the same epoch
	restart := ps[0].Store.WALOffset()
	for i := 0; ps[0].Store.WALOffset() <= heldEnd; i++ {
		ps[0].Store.Put(fmt.Sprintf("k-%03d", 20+i), []byte("second incarnation"))
	}

	fol2, err := NewFollower("127.0.0.1:0", FollowerConfig{Stores: fs, Epoch: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer fol2.Close()
	pri2, err := NewPrimary(PrimaryConfig{Stores: ps, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pri2.Close()
	pri2.AddFollower(fol2.Addr())
	waitCaughtUp(t, ps, fs, 5*time.Second)
	assertSameLogs(t, ps, fs)
	if v, _ := get(t, fs, "idmap", "k-020"); v != "second incarnation" {
		t.Fatalf("follower k-020 = %q, want the restarted primary's value", v)
	}
	if got := reg.Counter("css_repl_truncates_total", "").Value(); got != 1 {
		t.Fatalf("css_repl_truncates_total = %d, want 1 (idmap back to %d)", got, restart)
	}
}

// TestRejoinFrameCountIndependentOfHistory: a deposed primary rejoining
// exchanges the same number of negotiation frames whether the shared
// history holds 10 or 20,000 records.
func TestRejoinFrameCountIndependentOfHistory(t *testing.T) {
	count := func(t *testing.T, records int) int {
		dir := t.TempDir()
		ps := openStores(t, filepath.Join(dir, "p"))
		fs := openStores(t, filepath.Join(dir, "f"))
		markAll(t, ps, 1)
		for i := 0; i < records; i++ {
			ps[0].Store.Put(fmt.Sprintf("id-%06d", i), []byte("shared"))
			ps[2].Store.Put(fmt.Sprintf("a-%06d", i), []byte("audit"))
		}
		// The follower holds the shared history, then wins epoch 2 while
		// the old primary wrote an unshipped suffix.
		for i := range ps {
			seg, err := ps[i].Store.ReadWAL(ps[i].Store.WALGen(), 0, 1<<30)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fs[i].Store.ApplyWALSegment(0, seg); err != nil {
				t.Fatal(err)
			}
		}
		ps[0].Store.Put("rogue", []byte("unshipped"))
		markAll(t, fs, 2)
		fs[0].Store.Put("new", []byte("epoch-2"))

		rejoin, err := NewFollower("127.0.0.1:0", FollowerConfig{Stores: ps, Epoch: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer rejoin.Close()
		d := &tapDialer{}
		pri, err := NewPrimary(PrimaryConfig{Stores: fs, Epoch: 2, Dial: d.dial})
		if err != nil {
			t.Fatal(err)
		}
		defer pri.Close()
		pri.AddFollower(rejoin.Addr())
		waitCaughtUp(t, fs, ps, 10*time.Second)
		assertSameLogs(t, fs, ps)

		// Negotiation is everything the primary sent before its first
		// data frame, plus the follower's hello and one ack per truncate.
		c := d.last(t, 1)
		var sent, truncates int
		for _, k := range c.frames(true) {
			if k == byte(FrameData) {
				break
			}
			sent++
			if k == byte(FrameTruncate) {
				truncates++
			}
		}
		if got := c.frames(false); len(got) == 0 || got[0] != byte(FrameHello) {
			t.Fatalf("follower's first frame %v, want hello", got)
		}
		return sent + 1 + truncates
	}
	small, large := count(t, 10), count(t, 20000)
	if small != large {
		t.Fatalf("rejoin exchanged %d frames at 10 records but %d at 20,000", small, large)
	}
	t.Logf("rejoin negotiation: %d frames at both history sizes", small)
}

// TestFollowerAcksDataBeforeBufferedHeartbeat: a data frame followed by
// a heartbeat in the same read must still be fsynced and acked without
// any further data arriving.
func TestFollowerAcksDataBeforeBufferedHeartbeat(t *testing.T) {
	dir := t.TempDir()
	fs := openStores(t, filepath.Join(dir, "f"))
	fol, err := NewFollower("127.0.0.1:0", FollowerConfig{Stores: fs, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()

	src, err := store.Open(filepath.Join(dir, "src.wal"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.Put("k", []byte("v"))
	seg, err := src.ReadWAL(src.WALGen(), 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", fol.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	if _, err := readMsg(br); err != nil { // hello
		t.Fatal(err)
	}
	if err := writeMsg(conn, encodeSyncStart()); err != nil {
		t.Fatal(err)
	}
	for range fs { // sync-start certification acks
		if _, err := readMsg(br); err != nil {
			t.Fatal(err)
		}
	}

	var both bytes.Buffer
	writeMsg(&both, encodeData("idmap", 1, 0, seg))
	writeMsg(&both, encodeHeartbeat(1))
	if _, err := conn.Write(both.Bytes()); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	msg, err := readMsg(br)
	if err != nil {
		t.Fatalf("no ack for a data frame followed by a heartbeat: %v", err)
	}
	name, off, err := decodeAck(msg)
	if err != nil || name != "idmap" || off != int64(len(seg)) {
		t.Fatalf("ack = (%q, %d, %v), want (idmap, %d)", name, off, err, len(seg))
	}
	if synced := fs[0].Store.WALSynced(); synced != int64(len(seg)) {
		t.Fatalf("acked before fsync: synced %d, want %d", synced, len(seg))
	}
}

func TestCommonPrefix(t *testing.T) {
	h := func(pairs ...int64) []store.EpochStart {
		var out []store.EpochStart
		for i := 0; i < len(pairs); i += 2 {
			out = append(out, store.EpochStart{Epoch: uint64(pairs[i]), Offset: pairs[i+1]})
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		ours     []store.EpochStart
		ourEnd   int64
		theirs   []store.EpochStart
		theirEnd int64
		want     int64
		wantErr  bool
	}{
		{"no markers: shorter log", nil, 100, nil, 60, 60, false},
		{"clean prefix in our epoch", h(1, 0, 2, 50), 200, h(1, 0, 2, 50), 120, 120, false},
		{"deposed suffix cut at new epoch", h(1, 0, 2, 50), 200, h(1, 0), 80, 50, false},
		{"lagging follower kept", h(1, 0, 2, 50), 200, h(1, 0), 30, 30, false},
		{"unshared epoch cut to shared end", h(1, 0, 3, 50), 90, h(1, 0, 2, 50), 70, 50, false},
		{"only implicit epoch shared", h(3, 40), 90, h(2, 40), 70, 40, false},
		{"same epoch at two offsets", h(1, 0, 2, 50), 200, h(1, 0, 2, 60), 80, 0, true},
		{"restart at the same epoch cuts the lost tail", h(1, 0, 1, 60), 200, h(1, 0), 100, 60, false},
		{"restart at the same epoch, follower behind", h(1, 0, 1, 60), 200, h(1, 0), 40, 40, false},
		{"shared restart marker", h(1, 0, 1, 60), 200, h(1, 0, 1, 60), 100, 100, false},
		{"diverged restart markers", h(1, 0, 1, 60), 200, h(1, 0, 1, 70), 100, 0, true},
		{"history past the log end", h(1, 0), 200, h(1, 90), 80, 0, true},
		{"two markers at one offset", h(1, 0), 200, h(1, 10, 2, 10), 80, 0, true},
	} {
		got, err := commonPrefix(tc.ours, tc.ourEnd, tc.theirs, tc.theirEnd)
		if (err != nil) != tc.wantErr || got != tc.want {
			t.Errorf("%s: commonPrefix = %d, %v; want %d (error %v)", tc.name, got, err, tc.want, tc.wantErr)
		}
	}
}

// TestPrimaryRefusesMismatchedHistory: a follower claiming an epoch the
// primary also holds, but at another offset, does not descend from the
// primary's history; the primary refuses it instead of guessing.
func TestPrimaryRefusesMismatchedHistory(t *testing.T) {
	dir := t.TempDir()
	ps := openStores(t, filepath.Join(dir, "p"))
	fs := openStores(t, filepath.Join(dir, "f"))
	markAll(t, ps, 1)
	ps[0].Store.Put("p", []byte("primary"))
	fs[0].Store.Put("f", []byte("unrelated history"))
	markAll(t, fs, 1)

	fol, err := NewFollower("127.0.0.1:0", FollowerConfig{Stores: fs, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	var mu sync.Mutex
	var logs []string
	pri, err := NewPrimary(PrimaryConfig{Stores: ps, Epoch: 1, Logf: func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer pri.Close()
	pri.AddFollower(fol.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for {
		mu.Lock()
		refused := false
		for _, l := range logs {
			refused = refused || bytes.Contains([]byte(l), []byte("logs do not match"))
		}
		mu.Unlock()
		if refused {
			break
		}
		if ctx.Err() != nil {
			t.Fatalf("primary never refused the mismatched follower; logs: %v", logs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, ok := get(t, fs, "idmap", "f"); !ok {
		t.Fatal("refused follower was truncated anyway")
	}
	if _, ok := get(t, fs, "idmap", "p"); ok {
		t.Fatal("refused follower was shipped the primary's data")
	}
}
