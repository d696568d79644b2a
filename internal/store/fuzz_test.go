package store

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALReplay: replaying an arbitrary file must never panic, must
// never report a valid length beyond the file size, and the store must
// open (or fail cleanly) after truncating to the reported length.
func FuzzWALReplay(f *testing.F) {
	// Seed with a real WAL.
	dir, err := os.MkdirTemp("", "fuzzwal")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(dir)
	seedPath := filepath.Join(dir, "seed.wal")
	s, err := Open(seedPath, Options{})
	if err != nil {
		f.Fatal(err)
	}
	s.Put("key-one", []byte("value-one"))
	s.Put("key-two", []byte("value-two"))
	s.Delete("key-one")
	s.MarkEpoch(7)
	var b Batch
	b.Put("batch-one", []byte("batched-value"))
	b.Delete("key-two")
	b.Put("batch-two", []byte("another"))
	if err := s.Apply(&b); err != nil {
		f.Fatal(err)
	}
	s.Close()
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3]) // torn tail (inside the batch frame)
	f.Add([]byte{})
	f.Add([]byte("garbage that is not a wal at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.wal")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		count := 0
		validLen, err := replayWAL(path, func(r walRecord, at int64) {
			count++
			if r.op != opPut && r.op != opDel && r.op != opEpoch {
				t.Fatalf("replay surfaced invalid op %d", r.op)
			}
			if at < 0 || at >= int64(len(data)) {
				t.Fatalf("record offset %d outside the file", at)
			}
		})
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("validLen %d out of range [0,%d]", validLen, len(data))
		}
		if err != nil {
			return // corrupt middle is a clean refusal
		}
		// A clean replay means Open must succeed on the same bytes.
		st, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("replay clean but Open failed: %v", err)
		}
		st.Close()
	})
}
