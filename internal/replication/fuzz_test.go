package replication

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"repro/internal/store"
)

// reencode decodes one replication frame of any type and renders the
// decoded value again. ok is false when the decoder rejected the frame.
func reencode(data []byte) (out []byte, ok bool) {
	switch frameKind(data) {
	case FrameHello:
		e, offs, err := decodeHello(data)
		return encodeHello(e, offs), err == nil
	case FrameData:
		name, e, off, seg, err := decodeData(data)
		return encodeData(name, e, off, seg), err == nil
	case FrameAck:
		name, off, err := decodeAck(data)
		return encodeAck(name, off), err == nil
	case FrameDeny:
		e, err := decodeDeny(data)
		return encodeDeny(e), err == nil
	case FrameHeartbeat:
		e, err := decodeHeartbeat(data)
		return encodeHeartbeat(e), err == nil
	case FrameCampaign:
		e, offs, err := decodeCampaign(data)
		return encodeCampaign(e, offs), err == nil
	case FrameGrant:
		g, e, err := decodeGrant(data)
		return encodeGrant(g, e), err == nil
	case FrameTruncate:
		name, off, err := decodeTruncate(data)
		return encodeTruncate(name, off), err == nil
	case FrameSyncStart:
		return encodeSyncStart(), decodeSyncStart(data) == nil
	}
	return nil, false
}

// FuzzReplicationFrames feeds arbitrary bytes to every replication
// frame decoder. Decoding must never panic; a count the payload cannot
// hold must be rejected before it sizes an allocation (the decoder
// allocates at most a small multiple of the input); and a frame that
// decodes must re-encode to exactly its own bytes.
func FuzzReplicationFrames(f *testing.F) {
	history := []store.EpochStart{{Epoch: 1, Offset: 0}, {Epoch: 4, Offset: 9000}}
	hello := encodeHello(3, []storeOffset{
		{name: "idmap", offset: 12345, history: history},
		{name: "index", offset: 0},
		{name: "audit", offset: 77, history: history[:1]},
	})
	for _, seed := range [][]byte{
		hello,
		encodeHello(0, nil),
		encodeData("index", 2, 4096, []byte("raw wal records")),
		encodeAck("audit", 1<<40),
		encodeDeny(9),
		encodeHeartbeat(5),
		encodeCampaign(6, []storeOffset{{name: "idmap", offset: 1}, {name: "audit", offset: 300}}),
		encodeGrant(true, 6),
		encodeGrant(false, 7),
		encodeTruncate("idmap", 512),
		encodeSyncStart(),
		// A hello whose store count claims far more than the payload holds.
		append(encodeHello(1, nil)[:5], 0xff, 0xff, 0xff, 0xff, 0x0f, 'x'),
		hello[:len(hello)-3],
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// TotalAlloc is process-wide and the fuzzing engine allocates
		// concurrently, so the bound is checked on the least of a few
		// runs: the decoder's own allocation is the same every time.
		limit := 32*uint64(len(data)) + 4096
		grew := uint64(math.MaxUint64)
		for try := 0; try < 5 && grew > limit; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			switch frameKind(data) {
			case FrameHello:
				decodeHello(data)
			case FrameCampaign:
				decodeCampaign(data)
			default:
				reencode(data)
			}
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if grew > limit {
			t.Fatalf("decoding a %d-byte frame allocated %d bytes", len(data), grew)
		}

		out, ok := reencode(data)
		if ok && !bytes.Equal(out, data) {
			t.Fatalf("accepted frame re-encodes differently:\n in  %x\n out %x", data, out)
		}
	})
}
