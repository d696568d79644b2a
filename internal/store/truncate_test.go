package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
)

// openAt fills a fresh store with n sequential puts and returns it plus
// the record-boundary offsets after each put (offsets[i] is the WAL end
// after put i).
func openAt(t *testing.T, path string, n int) (*Store, []int64) {
	t.Helper()
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	offsets := make([]int64, n)
	for i := 0; i < n; i++ {
		if err := s.Put(fmt.Sprintf("key-%03d", i), []byte(fmt.Sprintf("value-%03d", i))); err != nil {
			t.Fatal(err)
		}
		offsets[i] = s.WALOffset()
	}
	return s, offsets
}

func TestTruncateWALRebuildsState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.wal")
	s, offsets := openAt(t, path, 8)
	defer s.Close()
	genBefore := s.WALGen()

	// Cut back to just after put 4: puts 5..7 must vanish from memory
	// and from the file.
	if err := s.TruncateWAL(offsets[4]); err != nil {
		t.Fatal(err)
	}
	if got := s.WALOffset(); got != offsets[4] {
		t.Fatalf("WALOffset after truncate = %d, want %d", got, offsets[4])
	}
	if got := s.WALSynced(); got != offsets[4] {
		t.Fatalf("WALSynced after truncate = %d, want %d", got, offsets[4])
	}
	if gen := s.WALGen(); gen != genBefore+1 {
		t.Fatalf("WALGen = %d, want %d (truncation must invalidate cursors)", gen, genBefore+1)
	}
	for i := 0; i < 8; i++ {
		_, ok, err := s.Get(fmt.Sprintf("key-%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		if want := i <= 4; ok != want {
			t.Fatalf("key-%03d present = %v, want %v", i, ok, want)
		}
	}
	// A stale-generation reader must fail loudly, not read rewritten bytes.
	if _, err := s.ReadWAL(genBefore, 0, 1<<20); !errors.Is(err, ErrWALRotated) {
		t.Fatalf("stale ReadWAL err = %v, want ErrWALRotated", err)
	}

	// New appends land after the cut and survive a reopen.
	if err := s.Put("post-truncate", []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	re, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok, _ := re.Get("key-007"); ok {
		t.Fatal("truncated key resurrected after reopen")
	}
	if _, ok, _ := re.Get("post-truncate"); !ok {
		t.Fatal("post-truncate append lost after reopen")
	}
}

func TestTruncateWALRejectsMidRecordOffset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.wal")
	s, offsets := openAt(t, path, 3)
	defer s.Close()
	if err := s.TruncateWAL(offsets[1] + 3); err == nil {
		t.Fatal("TruncateWAL accepted a mid-record offset")
	}
	if err := s.TruncateWAL(offsets[2] + 10); err == nil {
		t.Fatal("TruncateWAL accepted an offset past the log end")
	}
}

// TestEpochMarkers: markers are log records that survive reopen, ship
// through ApplyWALSegment, are trimmed by TruncateWAL, and never show up
// as data; an epoch below the last marker is refused, the same epoch
// again is marked anew.
func TestEpochMarkers(t *testing.T) {
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.wal")
	a, err := Open(pathA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	mark3 := a.WALOffset()
	if err := a.MarkEpoch(3); err != nil {
		t.Fatal(err)
	}
	for _, e := range []uint64{2, 0} { // a stale writer is refused
		if err := a.MarkEpoch(e); !errors.Is(err, ErrStaleEpoch) {
			t.Fatalf("MarkEpoch(%d) = %v, want ErrStaleEpoch", e, err)
		}
	}
	if err := a.Put("k2", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// A writer restarting at its own epoch starts a new incarnation.
	again3 := a.WALOffset()
	if err := a.MarkEpoch(3); err != nil {
		t.Fatal(err)
	}
	want := []EpochStart{{Epoch: 3, Offset: mark3}, {Epoch: 3, Offset: again3}}
	checkData := func(t *testing.T, s *Store, history []EpochStart, keys ...string) {
		t.Helper()
		if got := s.EpochHistory(); fmt.Sprint(got) != fmt.Sprint(history) {
			t.Fatalf("EpochHistory = %v, want %v", got, history)
		}
		if n, _ := s.Len(); n != len(keys) {
			t.Fatalf("Len = %d, want %d", n, len(keys))
		}
		var seen []string
		s.AscendPrefix("", func(k string, _ []byte) bool {
			seen = append(seen, k)
			return true
		})
		if fmt.Sprint(seen) != fmt.Sprint(keys) {
			t.Fatalf("AscendPrefix keys = %v, want %v", seen, keys)
		}
		var live int64
		for _, k := range keys {
			v, ok, _ := s.Get(k)
			if !ok {
				t.Fatalf("Get(%q) missing", k)
			}
			live += int64(len(k) + len(v))
		}
		if s.liveBytes != live {
			t.Fatalf("liveBytes = %d, want %d (markers must not count)", s.liveBytes, live)
		}
	}
	checkData(t, a, want, "k1", "k2")

	// Survives reopen.
	a.Close()
	if a, err = Open(pathA, Options{}); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	checkData(t, a, want, "k1", "k2")

	// Arrives on a follower as ordinary shipped bytes.
	b, err := Open(filepath.Join(dir, "b.wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ship := func() {
		t.Helper()
		seg, err := a.ReadWAL(a.WALGen(), b.WALOffset(), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.ApplyWALSegment(b.WALOffset(), seg); err != nil {
			t.Fatal(err)
		}
	}
	ship()
	checkData(t, b, want, "k1", "k2")

	mark5 := a.WALOffset()
	if err := a.MarkEpoch(5); err != nil {
		t.Fatal(err)
	}
	if err := a.Put("k3", []byte("v3")); err != nil {
		t.Fatal(err)
	}
	ship()
	checkData(t, b, append(want, EpochStart{Epoch: 5, Offset: mark5}), "k1", "k2", "k3")

	// A marker is a log record, not a batch member.
	marker, err := a.ReadWAL(a.WALGen(), mark5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBatchFrame(marker); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeBatchFrame(marker) = %v, want ErrCorrupt", err)
	}

	// Truncating at the marker trims it and everything after.
	if err := b.TruncateWAL(mark5); err != nil {
		t.Fatal(err)
	}
	checkData(t, b, want, "k1", "k2")
}
