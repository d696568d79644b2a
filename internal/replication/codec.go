// Package replication ships a primary controller's write-ahead logs to
// follower replicas and promotes the most-caught-up follower when the
// primary dies.
//
// The unit of replication is the raw CRC'd WAL record the store already
// writes (PR 2): the primary tails each of its stores' logs and streams
// byte ranges to every follower, which appends the identical bytes to
// its own log and applies the decoded mutations — a follower's WAL is
// at all times a byte-identical prefix of the primary's, so a cursor is
// just (store, byte offset) and catch-up after a reconnect starts from
// the offsets the follower announces in its hello.
//
// Durability modes:
//
//   - async: the publish path never waits for followers; the bounded
//     loss window is visible as css_repl_lag_bytes per follower.
//   - quorum: Primary.Barrier blocks until ⌈N/2⌉ followers have fsynced
//     everything staged before the barrier. The controller overlaps the
//     barrier with bus fan-out exactly like the PR 7 group-commit wait,
//     so it costs one network round trip off the latency path.
//
// Fencing: every data frame carries the primary's epoch. A follower
// that has seen a higher epoch (because a promoted primary reached it
// first, or the operator raised it during failover) answers with a deny
// frame and drops the connection, so a deposed primary's late writes
// can never land. Epochs are recorded per shard in the versioned shard
// map (cluster.ShardInfo.Epoch) — the promotion that bumps the map
// version is the lease claim.
//
// Cross-store consistency: a publish touches idmap, then index, then
// audit. The shipper captures per-store targets in *reverse* dependency
// order and ships segments in forward order, so any record visible in a
// later store implies its prerequisites in earlier stores were captured
// in the same round — a follower cut never holds an index entry without
// its pseudonym mapping, or an audit record without its index entry.
//
// Rejoin: a node that starts writing (a promotion, or a boot as
// primary) first writes an epoch marker into every replicated store's
// WAL (store.MarkEpoch), so each log carries its own (epoch, offset)
// history. The hello announces that history next to the offset; the
// primary finds the newest marker both histories share, takes the
// shorter of the two logs' spans after it as the common prefix, and
// orders a truncate when the follower's log runs past it (a deposed
// primary's unreplicated suffix, or a tail a restarted primary lost).
// Negotiation reads no WAL bytes, so its cost depends on the number of
// markers, not on the history size.
//
// Wire format: each message is a 4-byte little-endian length followed
// by one binary frame using the event package's header conventions
// (same magic and version as the event wire codec; the cluster layer
// owns frame types 8-9, replication claims 10-20):
//
//	hello     (10): uvarint epoch | uvarint count | count × (string store, uvarint offset,
//	                uvarint markers, markers × (uvarint epoch, uvarint offset))
//	data      (11): string store | uvarint epoch | uvarint offset | uvarint len | raw WAL records
//	ack       (12): string store | uvarint offset fsynced through
//	deny      (13): uvarint epoch the follower holds (fencing rejection)
//	heartbeat (14): uvarint epoch — primary liveness, feeds the failure detector
//	campaign  (15): uvarint epoch | uvarint count | count × (string store, uvarint offset) — candidate's claim + cursors
//	grant     (16): uvarint granted (0|1) | uvarint epoch the voter now holds
//	truncate  (19): string store | uvarint offset — cut the log back to offset (acked)
//	syncstart (20): (empty) — negotiation over; follower certifies its prefix and the data stream begins
//
// Types 17 and 18 carried a per-record digest walk that the epoch
// markers replaced; they are retired and never reused.
package replication

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/event"
	"repro/internal/store"
)

// Frame types claimed by the replication layer (event owns 1-7,
// cluster owns 8-9).
const (
	// FrameHello announces a follower's epoch and per-store cursors.
	FrameHello = event.FrameType(10)
	// FrameData carries one raw WAL segment for one store.
	FrameData = event.FrameType(11)
	// FrameAck acknowledges a follower fsync through an offset.
	FrameAck = event.FrameType(12)
	// FrameDeny rejects a stale-epoch primary (fencing).
	FrameDeny = event.FrameType(13)
	// FrameHeartbeat is a primary liveness beacon carrying its epoch.
	FrameHeartbeat = event.FrameType(14)
	// FrameCampaign is a candidate's election claim: the epoch it wants
	// plus its per-store cursors (the voter's up-to-date check).
	FrameCampaign = event.FrameType(15)
	// FrameGrant answers a campaign: granted or not, and the epoch the
	// voter holds after deciding.
	FrameGrant = event.FrameType(16)
	// 17 and 18 are retired (the old digest walk); never reuse them.

	// FrameTruncate orders a rejoining follower to cut a store's WAL
	// back to the common prefix.
	FrameTruncate = event.FrameType(19)
	// FrameSyncStart ends rejoin negotiation: the follower certifies its
	// (possibly truncated) prefix and the data stream begins.
	FrameSyncStart = event.FrameType(20)
)

// maxMessage bounds a wire message; segments are shipped in chunks far
// below it, so anything larger is corruption, not load.
const maxMessage = 64 << 20

var (
	errCodecTrail = errors.New("replication: frame has trailing garbage")
	errCodecBomb  = errors.New("replication: frame claims more than the payload holds")
	errCodecRange = errors.New("replication: frame offset out of range")
)

// writeMsg frames and writes one message: 4-byte LE length + frame.
func writeMsg(w io.Writer, frame []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(frame)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(frame)
	return err
}

// readMsg reads one length-prefixed message.
func readMsg(br *bufio.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxMessage {
		return nil, fmt.Errorf("replication: message of %d bytes exceeds limit", n)
	}
	msg := make([]byte, n)
	if _, err := io.ReadFull(br, msg); err != nil {
		return nil, err
	}
	return msg, nil
}

// frameKind peeks the frame type of a raw message without validating
// the body (0 when the message is too short to carry a header).
func frameKind(msg []byte) event.FrameType {
	if len(msg) < event.FrameHeaderLen {
		return 0
	}
	return event.FrameType(msg[3])
}

// storeOffset is one (store, byte offset) cursor in a hello or campaign
// frame. In a hello, history is the store's epoch markers — everything
// the primary needs to find the common prefix; campaigns carry offsets
// only (history is nil).
type storeOffset struct {
	name    string
	offset  int64
	history []store.EpochStart
}

// frameOffset decodes a byte offset, rejecting values past int64.
func frameOffset(p []byte) (int64, []byte, error) {
	v, p, err := event.FrameUvarint(p)
	if err == nil && v > math.MaxInt64 {
		err = errCodecRange
	}
	return int64(v), p, err
}

// frameCount decodes a list length and rejects it before anything is
// allocated when the rest of the payload cannot hold that many entries
// of at least minEntry bytes each.
func frameCount(p []byte, minEntry int) (uint64, []byte, error) {
	n, p, err := event.FrameUvarint(p)
	if err == nil && n > uint64(len(p)/minEntry) {
		err = errCodecBomb
	}
	return n, p, err
}

// frameEnd rejects trailing bytes after a decoded frame.
func frameEnd(p []byte) error {
	if len(p) != 0 {
		return errCodecTrail
	}
	return nil
}

func encodeHello(epoch uint64, offsets []storeOffset) []byte {
	size := event.FrameHeaderLen + event.UvarintLen(epoch) + event.UvarintLen(uint64(len(offsets)))
	for _, o := range offsets {
		size += event.UvarintLen(uint64(len(o.name))) + len(o.name) + event.UvarintLen(uint64(o.offset)) +
			event.UvarintLen(uint64(len(o.history)))
		for _, h := range o.history {
			size += event.UvarintLen(h.Epoch) + event.UvarintLen(uint64(h.Offset))
		}
	}
	dst := make([]byte, 0, size)
	dst = event.AppendFrameHeader(dst, FrameHello)
	dst = binary.AppendUvarint(dst, epoch)
	dst = binary.AppendUvarint(dst, uint64(len(offsets)))
	for _, o := range offsets {
		dst = event.AppendFrameString(dst, o.name)
		dst = binary.AppendUvarint(dst, uint64(o.offset))
		dst = binary.AppendUvarint(dst, uint64(len(o.history)))
		for _, h := range o.history {
			dst = binary.AppendUvarint(dst, h.Epoch)
			dst = binary.AppendUvarint(dst, uint64(h.Offset))
		}
	}
	return dst
}

func decodeHello(data []byte) (epoch uint64, offsets []storeOffset, err error) {
	p, err := event.FrameBody(data, FrameHello)
	if err != nil {
		return 0, nil, err
	}
	if epoch, p, err = event.FrameUvarint(p); err != nil {
		return 0, nil, err
	}
	// Each entry needs at least a one-byte name length, offset and
	// marker count; each marker a one-byte epoch and offset.
	var count uint64
	if count, p, err = frameCount(p, 3); err != nil {
		return 0, nil, err
	}
	offsets = make([]storeOffset, 0, count)
	for i := uint64(0); i < count; i++ {
		var o storeOffset
		var markers uint64
		if o.name, p, err = event.FrameString(p); err != nil {
			return 0, nil, err
		}
		if o.offset, p, err = frameOffset(p); err != nil {
			return 0, nil, err
		}
		if markers, p, err = frameCount(p, 2); err != nil {
			return 0, nil, err
		}
		o.history = make([]store.EpochStart, markers)
		for j := range o.history {
			h := &o.history[j]
			if h.Epoch, p, err = event.FrameUvarint(p); err != nil {
				return 0, nil, err
			}
			if h.Offset, p, err = frameOffset(p); err != nil {
				return 0, nil, err
			}
		}
		offsets = append(offsets, o)
	}
	return epoch, offsets, frameEnd(p)
}

func encodeData(storeName string, epoch uint64, offset int64, seg []byte) []byte {
	size := event.FrameHeaderLen +
		event.UvarintLen(uint64(len(storeName))) + len(storeName) +
		event.UvarintLen(epoch) + event.UvarintLen(uint64(offset)) +
		event.UvarintLen(uint64(len(seg))) + len(seg)
	dst := make([]byte, 0, size)
	dst = event.AppendFrameHeader(dst, FrameData)
	dst = event.AppendFrameString(dst, storeName)
	dst = binary.AppendUvarint(dst, epoch)
	dst = binary.AppendUvarint(dst, uint64(offset))
	dst = binary.AppendUvarint(dst, uint64(len(seg)))
	return append(dst, seg...)
}

func decodeData(data []byte) (storeName string, epoch uint64, offset int64, seg []byte, err error) {
	p, err := event.FrameBody(data, FrameData)
	if err != nil {
		return "", 0, 0, nil, err
	}
	var l uint64
	if storeName, p, err = event.FrameString(p); err != nil {
		return "", 0, 0, nil, err
	}
	if epoch, p, err = event.FrameUvarint(p); err != nil {
		return "", 0, 0, nil, err
	}
	if offset, p, err = frameOffset(p); err != nil {
		return "", 0, 0, nil, err
	}
	if l, p, err = event.FrameUvarint(p); err != nil {
		return "", 0, 0, nil, err
	}
	if l != uint64(len(p)) {
		return "", 0, 0, nil, errCodecBomb
	}
	return storeName, epoch, offset, p, nil
}

// encodeStoreOffset renders the (string store, uvarint offset) body
// shared by ack and truncate frames.
func encodeStoreOffset(t event.FrameType, storeName string, offset int64) []byte {
	size := event.FrameHeaderLen + event.UvarintLen(uint64(len(storeName))) + len(storeName) + event.UvarintLen(uint64(offset))
	dst := make([]byte, 0, size)
	dst = event.AppendFrameHeader(dst, t)
	dst = event.AppendFrameString(dst, storeName)
	return binary.AppendUvarint(dst, uint64(offset))
}

func decodeStoreOffset(data []byte, t event.FrameType) (storeName string, offset int64, err error) {
	p, err := event.FrameBody(data, t)
	if err != nil {
		return "", 0, err
	}
	if storeName, p, err = event.FrameString(p); err != nil {
		return "", 0, err
	}
	if offset, p, err = frameOffset(p); err != nil {
		return "", 0, err
	}
	return storeName, offset, frameEnd(p)
}

func encodeAck(storeName string, offset int64) []byte {
	return encodeStoreOffset(FrameAck, storeName, offset)
}

func decodeAck(data []byte) (string, int64, error) { return decodeStoreOffset(data, FrameAck) }

func encodeTruncate(storeName string, offset int64) []byte {
	return encodeStoreOffset(FrameTruncate, storeName, offset)
}

func decodeTruncate(data []byte) (string, int64, error) {
	return decodeStoreOffset(data, FrameTruncate)
}

// encodeEpochFrame renders the single-uvarint-epoch body shared by deny
// and heartbeat frames.
func encodeEpochFrame(t event.FrameType, epoch uint64) []byte {
	dst := make([]byte, 0, event.FrameHeaderLen+event.UvarintLen(epoch))
	dst = event.AppendFrameHeader(dst, t)
	return binary.AppendUvarint(dst, epoch)
}

func decodeEpochFrame(data []byte, t event.FrameType) (epoch uint64, err error) {
	p, err := event.FrameBody(data, t)
	if err != nil {
		return 0, err
	}
	if epoch, p, err = event.FrameUvarint(p); err != nil {
		return 0, err
	}
	return epoch, frameEnd(p)
}

func encodeDeny(epoch uint64) []byte { return encodeEpochFrame(FrameDeny, epoch) }

func decodeDeny(data []byte) (uint64, error) { return decodeEpochFrame(data, FrameDeny) }

func encodeHeartbeat(epoch uint64) []byte { return encodeEpochFrame(FrameHeartbeat, epoch) }

func decodeHeartbeat(data []byte) (uint64, error) { return decodeEpochFrame(data, FrameHeartbeat) }

func encodeCampaign(epoch uint64, offsets []storeOffset) []byte {
	size := event.FrameHeaderLen + event.UvarintLen(epoch) + event.UvarintLen(uint64(len(offsets)))
	for _, o := range offsets {
		size += event.UvarintLen(uint64(len(o.name))) + len(o.name) + event.UvarintLen(uint64(o.offset))
	}
	dst := make([]byte, 0, size)
	dst = event.AppendFrameHeader(dst, FrameCampaign)
	dst = binary.AppendUvarint(dst, epoch)
	dst = binary.AppendUvarint(dst, uint64(len(offsets)))
	for _, o := range offsets {
		dst = event.AppendFrameString(dst, o.name)
		dst = binary.AppendUvarint(dst, uint64(o.offset))
	}
	return dst
}

func decodeCampaign(data []byte) (epoch uint64, offsets []storeOffset, err error) {
	p, err := event.FrameBody(data, FrameCampaign)
	if err != nil {
		return 0, nil, err
	}
	if epoch, p, err = event.FrameUvarint(p); err != nil {
		return 0, nil, err
	}
	// Each entry needs at least a one-byte name length and offset.
	var count uint64
	if count, p, err = frameCount(p, 2); err != nil {
		return 0, nil, err
	}
	offsets = make([]storeOffset, count)
	for i := range offsets {
		o := &offsets[i]
		if o.name, p, err = event.FrameString(p); err != nil {
			return 0, nil, err
		}
		if o.offset, p, err = frameOffset(p); err != nil {
			return 0, nil, err
		}
	}
	return epoch, offsets, frameEnd(p)
}

func encodeGrant(granted bool, epoch uint64) []byte {
	g := uint64(0)
	if granted {
		g = 1
	}
	dst := make([]byte, 0, event.FrameHeaderLen+1+event.UvarintLen(epoch))
	dst = event.AppendFrameHeader(dst, FrameGrant)
	dst = binary.AppendUvarint(dst, g)
	return binary.AppendUvarint(dst, epoch)
}

func decodeGrant(data []byte) (granted bool, epoch uint64, err error) {
	p, err := event.FrameBody(data, FrameGrant)
	if err != nil {
		return false, 0, err
	}
	var g uint64
	if g, p, err = event.FrameUvarint(p); err != nil {
		return false, 0, err
	}
	if g > 1 {
		return false, 0, errCodecRange
	}
	if epoch, p, err = event.FrameUvarint(p); err != nil {
		return false, 0, err
	}
	return g == 1, epoch, frameEnd(p)
}

func encodeSyncStart() []byte {
	return event.AppendFrameHeader(make([]byte, 0, event.FrameHeaderLen), FrameSyncStart)
}

func decodeSyncStart(data []byte) error {
	p, err := event.FrameBody(data, FrameSyncStart)
	if err != nil {
		return err
	}
	return frameEnd(p)
}
