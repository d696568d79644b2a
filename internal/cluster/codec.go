// Binary frame codec for the shard map and the reshard handoff
// stream, built on the event package's frame primitives (same magic,
// version byte and hardened-decode discipline as the PR 7 wire codec).
//
// Shard-map frame (type 8):
//
//	header | uvarint version | uvarint vnodes | uvarint count |
//	count × (uvarint shardID, string addr, uvarint epoch,
//	         uvarint replicaCount, replicaCount × string)
//
// The per-shard epoch and replica list (both zero/empty outside
// replicated deployments) ride in the same versioned frame, so the
// failover protocol's primary claim is published through the exact
// channel clients already refresh from.
//
// Handoff frame (type 9) wraps one WAL-encoded store.Batch together
// with the name of the store it applies to — the index and idmap
// stores are separate, so every shipped batch must say which store
// replays it:
//
//	header | string storeName | string batchFrame
//
// where batchFrame is the store package's length+CRC framed batch
// (store.Batch.EncodeFrame). Decoders validate every claimed length
// against the bytes present before allocating, and reject trailing
// garbage, so torn frames fail cleanly (fuzzed in codec_fuzz_test.go).
package cluster

import (
	"encoding/binary"
	"errors"

	"repro/internal/event"
)

// Frame types claimed by the cluster layer. The event layer owns 1-7.
const (
	// FrameShardMap carries a versioned shard map.
	FrameShardMap = event.FrameType(8)
	// FrameHandoff carries one store-tagged WAL batch of a reshard
	// handoff stream.
	FrameHandoff = event.FrameType(9)
)

var (
	errCodecBomb  = errors.New("cluster: shard map frame claims more shards than payload can hold")
	errCodecTrail = errors.New("cluster: frame has trailing garbage")
	errCodecShard = errors.New("cluster: shard map frame has invalid shard id")
)

// EncodeFrame renders the map as a binary shard-map frame, sized up
// front and filled in one allocation.
func (m *Map) EncodeFrame() []byte {
	size := event.FrameHeaderLen +
		event.UvarintLen(m.version) +
		event.UvarintLen(uint64(m.vnodes)) +
		event.UvarintLen(uint64(len(m.shards)))
	for _, s := range m.shards {
		size += event.UvarintLen(uint64(s.ID)) + event.UvarintLen(uint64(len(s.Addr))) + len(s.Addr) +
			event.UvarintLen(s.Epoch) + event.UvarintLen(uint64(len(s.Replicas)))
		for _, r := range s.Replicas {
			size += event.UvarintLen(uint64(len(r))) + len(r)
		}
	}
	dst := make([]byte, 0, size)
	dst = event.AppendFrameHeader(dst, FrameShardMap)
	dst = binary.AppendUvarint(dst, m.version)
	dst = binary.AppendUvarint(dst, uint64(m.vnodes))
	dst = binary.AppendUvarint(dst, uint64(len(m.shards)))
	for _, s := range m.shards {
		dst = binary.AppendUvarint(dst, uint64(s.ID))
		dst = event.AppendFrameString(dst, s.Addr)
		dst = binary.AppendUvarint(dst, s.Epoch)
		dst = binary.AppendUvarint(dst, uint64(len(s.Replicas)))
		for _, r := range s.Replicas {
			dst = event.AppendFrameString(dst, r)
		}
	}
	return dst
}

// DecodeMapFrame parses a shard-map frame and rebuilds the ring. All
// NewMap validation (non-empty, unique non-negative IDs) applies, so a
// frame that decodes cleanly always yields a routable map.
func DecodeMapFrame(data []byte) (*Map, error) {
	p, err := event.FrameBody(data, FrameShardMap)
	if err != nil {
		return nil, err
	}
	var version, vnodes, count uint64
	if version, p, err = event.FrameUvarint(p); err != nil {
		return nil, err
	}
	if vnodes, p, err = event.FrameUvarint(p); err != nil {
		return nil, err
	}
	if vnodes == 0 || vnodes > 1<<16 {
		return nil, errors.New("cluster: shard map frame has invalid vnode count")
	}
	if count, p, err = event.FrameUvarint(p); err != nil {
		return nil, err
	}
	// Each shard entry needs at least four bytes (one-byte id varint, a
	// zero-length addr, a zero epoch and a zero replica count), so a
	// count beyond len(p)/4 cannot be satisfied: reject before sizing
	// the slice from wire input.
	if count > uint64(len(p))/4 {
		return nil, errCodecBomb
	}
	shards := make([]ShardInfo, 0, count)
	for i := uint64(0); i < count; i++ {
		var id, epoch, rcount uint64
		var addr string
		if id, p, err = event.FrameUvarint(p); err != nil {
			return nil, err
		}
		if id > 1<<30 {
			return nil, errCodecShard
		}
		if addr, p, err = event.FrameString(p); err != nil {
			return nil, err
		}
		if epoch, p, err = event.FrameUvarint(p); err != nil {
			return nil, err
		}
		if rcount, p, err = event.FrameUvarint(p); err != nil {
			return nil, err
		}
		// A replica entry needs at least its one-byte length varint.
		if rcount > uint64(len(p)) {
			return nil, errCodecBomb
		}
		var replicas []string
		for j := uint64(0); j < rcount; j++ {
			var r string
			if r, p, err = event.FrameString(p); err != nil {
				return nil, err
			}
			replicas = append(replicas, r)
		}
		shards = append(shards, ShardInfo{ID: ShardID(id), Addr: addr, Epoch: epoch, Replicas: replicas})
	}
	if len(p) != 0 {
		return nil, errCodecTrail
	}
	return NewMap(version, int(vnodes), shards)
}

// EncodeHandoffFrame wraps one WAL-framed store batch with the name of
// the store that must replay it.
func EncodeHandoffFrame(storeName string, batchFrame []byte) []byte {
	size := event.FrameHeaderLen +
		event.UvarintLen(uint64(len(storeName))) + len(storeName) +
		event.UvarintLen(uint64(len(batchFrame))) + len(batchFrame)
	dst := make([]byte, 0, size)
	dst = event.AppendFrameHeader(dst, FrameHandoff)
	dst = event.AppendFrameString(dst, storeName)
	dst = binary.AppendUvarint(dst, uint64(len(batchFrame)))
	return append(dst, batchFrame...)
}

// DecodeHandoffFrame splits a handoff frame into the target store name
// and the raw WAL batch frame (still carrying its own length+CRC,
// validated by store.DecodeBatchFrame on replay).
func DecodeHandoffFrame(data []byte) (storeName string, batchFrame []byte, err error) {
	p, err := event.FrameBody(data, FrameHandoff)
	if err != nil {
		return "", nil, err
	}
	if storeName, p, err = event.FrameString(p); err != nil {
		return "", nil, err
	}
	var l uint64
	if l, p, err = event.FrameUvarint(p); err != nil {
		return "", nil, err
	}
	if l > uint64(len(p)) {
		return "", nil, errors.New("cluster: handoff frame batch length exceeds payload")
	}
	batchFrame = p[:l]
	if len(p[l:]) != 0 {
		return "", nil, errCodecTrail
	}
	return storeName, batchFrame, nil
}
