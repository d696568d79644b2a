// Binary wire codec and the Codec abstraction over wire formats.
//
// The platform's canonical wire format is XML (paper §5: notifications and
// event details travel as XML documents between web services). XML keeps
// the paper-fidelity interface for external integrations, but its encoder
// dominates the controller's publish path. This file adds a compact
// length-prefixed binary framing ("application/x-css-frame") that clients
// negotiate per request via standard HTTP content negotiation; both
// formats implement the same Codec interface so core and transport are
// format-agnostic.
//
// Frame layout (all integers are unsigned varints unless noted):
//
//	0xC5 0x5F          magic
//	0x01               frame version
//	type               one FrameType byte
//	...                type-specific fields, in fixed order
//
// Strings are uvarint(len) + raw bytes. Times are a presence byte
// (0 = zero time) followed, when present, by the zigzag-varint UnixNano.
// Maps are uvarint(count) + count (name, value) string pairs, written in
// sorted name order so identical payloads yield identical bytes (matching
// the deterministic XML form).
//
// The decoder is hardened against hostile input: every claimed length is
// validated against the bytes actually remaining before any allocation is
// sized from it, so truncated frames and length-bombs fail cleanly without
// over-allocating (fuzzed in codec_fuzz_test.go).
package event

import (
	"encoding/binary"
	"errors"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Content types exchanged in Accept / Content-Type headers.
const (
	// ContentTypeXML is the default, paper-faithful XML wire format.
	ContentTypeXML = "application/xml"
	// ContentTypeBinary is the negotiated compact binary framing.
	ContentTypeBinary = "application/x-css-frame"
)

// Codec serializes the three wire message kinds that travel between
// producers, the data controller and consumers. Implementations must be
// safe for concurrent use.
type Codec interface {
	// Name is the short label used in flags, bench output and logs
	// ("xml" or "binary").
	Name() string
	// ContentType is the HTTP media type announced for this codec.
	ContentType() string

	EncodeNotification(*Notification) ([]byte, error)
	DecodeNotification([]byte) (*Notification, error)
	EncodeDetail(*Detail) ([]byte, error)
	DecodeDetail([]byte) (*Detail, error)
	EncodeDetailRequest(*DetailRequest) ([]byte, error)
	DecodeDetailRequest([]byte) (*DetailRequest, error)
}

// CodecByName resolves a -codec flag value.
func CodecByName(name string) (Codec, error) {
	switch name {
	case "", "xml":
		return XML, nil
	case "binary":
		return Binary, nil
	}
	return nil, errors.New("event: unknown codec " + strconv.Quote(name) + " (want xml or binary)")
}

// FrameType tags the payload kind of a binary frame. Types 1-3 are the
// event-layer messages; the transport layer claims higher values for its
// control envelopes (faults, publish/subscribe responses).
type FrameType byte

const (
	FrameNotification    FrameType = 1
	FrameDetail          FrameType = 2
	FrameDetailRequest   FrameType = 3
	FrameFault           FrameType = 4
	FramePublishResponse FrameType = 5
	FrameSubscribeReq    FrameType = 6
	FrameSubscribeResp   FrameType = 7
)

const (
	frameMagic0  = 0xC5
	frameMagic1  = 0x5F
	frameVersion = 0x01
	// FrameHeaderLen is the fixed prefix length of every binary frame.
	FrameHeaderLen = 4
)

var (
	errFrameShort   = errors.New("event: binary frame truncated")
	errFrameMagic   = errors.New("event: not a css binary frame (bad magic)")
	errFrameVersion = errors.New("event: unsupported binary frame version")
	errFrameLength  = errors.New("event: binary frame length exceeds payload")
	errFrameVarint  = errors.New("event: binary frame has malformed varint")
	errFrameBomb    = errors.New("event: binary frame claims more entries than payload can hold")
	errFrameTrail   = errors.New("event: binary frame has trailing garbage")
)

type frameTypeError struct{ want, got FrameType }

func (e *frameTypeError) Error() string {
	return "event: binary frame type mismatch: want " +
		strconv.Itoa(int(e.want)) + ", got " + strconv.Itoa(int(e.got))
}

// IsBinaryFrame reports whether data starts with the binary frame magic.
// Transport uses it to sniff fault bodies when a middleware answered in a
// format other than the one the client negotiated.
func IsBinaryFrame(data []byte) bool {
	return len(data) >= 2 && data[0] == frameMagic0 && data[1] == frameMagic1
}

// AppendFrameHeader appends the 4-byte frame prefix for the given type.
func AppendFrameHeader(dst []byte, t FrameType) []byte {
	return append(dst, frameMagic0, frameMagic1, frameVersion, byte(t))
}

// FrameBody validates the frame prefix and returns the payload following
// it. It fails if the frame is not of the wanted type.
func FrameBody(data []byte, want FrameType) ([]byte, error) {
	if len(data) < FrameHeaderLen {
		return nil, errFrameShort
	}
	if data[0] != frameMagic0 || data[1] != frameMagic1 {
		return nil, errFrameMagic
	}
	if data[2] != frameVersion {
		return nil, errFrameVersion
	}
	if FrameType(data[3]) != want {
		return nil, &frameTypeError{want: want, got: FrameType(data[3])}
	}
	return data[FrameHeaderLen:], nil
}

// UvarintLen returns the encoded size of x as an unsigned varint.
func UvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// frameStringLen returns the encoded size of a string field.
func frameStringLen(s string) int {
	return UvarintLen(uint64(len(s))) + len(s)
}

// AppendFrameString appends a length-prefixed string field.
func AppendFrameString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// FrameUvarint decodes an unsigned varint field, returning the value and
// the remaining payload. Only the shortest encoding is accepted, so a
// decoded frame re-encodes to the same bytes.
func FrameUvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 || n != UvarintLen(v) {
		return 0, nil, errFrameVarint
	}
	return v, p[n:], nil
}

// FrameString decodes a length-prefixed string field, returning the value
// and the remaining payload. The claimed length is checked against the
// bytes actually present before the string is materialized.
func FrameString(p []byte) (string, []byte, error) {
	l, rest, err := FrameUvarint(p)
	if err != nil {
		return "", nil, err
	}
	if l > uint64(len(rest)) {
		return "", nil, errFrameLength
	}
	return string(rest[:l]), rest[l:], nil
}

// frameTimeLen returns the encoded size of a time field.
func frameTimeLen(t time.Time) int {
	if t.IsZero() {
		return 1
	}
	v := t.UnixNano()
	return 1 + UvarintLen(uint64((v<<1)^(v>>63))) // zigzag, as AppendVarint does
}

// AppendFrameTime appends a time field: presence byte then UnixNano.
// The zero time is preserved exactly (a bare 0 byte); non-zero times
// round-trip with nanosecond precision in the UTC location.
func AppendFrameTime(dst []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return binary.AppendVarint(dst, t.UnixNano())
}

// FrameTime decodes a time field written by AppendFrameTime.
func FrameTime(p []byte) (time.Time, []byte, error) {
	if len(p) < 1 {
		return time.Time{}, nil, errFrameShort
	}
	present, rest := p[0], p[1:]
	switch present {
	case 0:
		return time.Time{}, rest, nil
	case 1:
		v, n := binary.Varint(rest)
		if n <= 0 {
			return time.Time{}, nil, errFrameVarint
		}
		return time.Unix(0, v).UTC(), rest[n:], nil
	}
	return time.Time{}, nil, errors.New("event: binary frame has invalid time presence byte")
}

// XML is the default codec: the paper-faithful XML wire format.
var XML Codec = xmlCodec{}

// Binary is the negotiated compact binary framing codec.
var Binary Codec = binaryCodec{}

type binaryCodec struct{}

func (binaryCodec) Name() string        { return "binary" }
func (binaryCodec) ContentType() string { return ContentTypeBinary }

// EncodeNotification writes a notification frame in exactly one
// allocation: the frame size is computed up front and the buffer is
// filled by appends that never grow it.
func (binaryCodec) EncodeNotification(n *Notification) ([]byte, error) {
	size := FrameHeaderLen +
		frameStringLen(string(n.ID)) +
		frameStringLen(n.Trace) +
		frameStringLen(string(n.SourceID)) +
		frameStringLen(string(n.Class)) +
		frameStringLen(n.PersonID) +
		frameStringLen(n.Summary) +
		frameStringLen(string(n.Producer)) +
		frameTimeLen(n.OccurredAt) +
		frameTimeLen(n.PublishedAt)
	dst := make([]byte, 0, size)
	dst = AppendFrameHeader(dst, FrameNotification)
	dst = AppendFrameString(dst, string(n.ID))
	dst = AppendFrameString(dst, n.Trace)
	dst = AppendFrameString(dst, string(n.SourceID))
	dst = AppendFrameString(dst, string(n.Class))
	dst = AppendFrameString(dst, n.PersonID)
	dst = AppendFrameString(dst, n.Summary)
	dst = AppendFrameString(dst, string(n.Producer))
	dst = AppendFrameTime(dst, n.OccurredAt)
	dst = AppendFrameTime(dst, n.PublishedAt)
	return dst, nil
}

func (binaryCodec) DecodeNotification(data []byte) (*Notification, error) {
	p, err := FrameBody(data, FrameNotification)
	if err != nil {
		return nil, err
	}
	n := &Notification{}
	var s string
	if s, p, err = FrameString(p); err != nil {
		return nil, err
	}
	n.ID = GlobalID(s)
	if n.Trace, p, err = FrameString(p); err != nil {
		return nil, err
	}
	if s, p, err = FrameString(p); err != nil {
		return nil, err
	}
	n.SourceID = SourceID(s)
	if s, p, err = FrameString(p); err != nil {
		return nil, err
	}
	n.Class = ClassID(s)
	if n.PersonID, p, err = FrameString(p); err != nil {
		return nil, err
	}
	if n.Summary, p, err = FrameString(p); err != nil {
		return nil, err
	}
	if s, p, err = FrameString(p); err != nil {
		return nil, err
	}
	n.Producer = ProducerID(s)
	if n.OccurredAt, p, err = FrameTime(p); err != nil {
		return nil, err
	}
	if n.PublishedAt, p, err = FrameTime(p); err != nil {
		return nil, err
	}
	if len(p) != 0 {
		return nil, errFrameTrail
	}
	return n, nil
}

// fieldNamesPool recycles the scratch slice used to sort detail field
// names during encode, so steady-state detail encoding does not allocate
// for the ordering pass.
var fieldNamesPool = sync.Pool{
	New: func() any { s := make([]FieldName, 0, 16); return &s },
}

func (binaryCodec) EncodeDetail(d *Detail) ([]byte, error) {
	np := fieldNamesPool.Get().(*[]FieldName)
	names := (*np)[:0]
	for f := range d.Fields {
		names = append(names, f)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })

	size := FrameHeaderLen +
		frameStringLen(string(d.SourceID)) +
		frameStringLen(string(d.Class)) +
		frameStringLen(string(d.Producer)) +
		UvarintLen(uint64(len(names)))
	for _, f := range names {
		size += frameStringLen(string(f)) + frameStringLen(d.Fields[f])
	}
	dst := make([]byte, 0, size)
	dst = AppendFrameHeader(dst, FrameDetail)
	dst = AppendFrameString(dst, string(d.SourceID))
	dst = AppendFrameString(dst, string(d.Class))
	dst = AppendFrameString(dst, string(d.Producer))
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, f := range names {
		dst = AppendFrameString(dst, string(f))
		dst = AppendFrameString(dst, d.Fields[f])
	}
	*np = names[:0]
	fieldNamesPool.Put(np)
	return dst, nil
}

func (binaryCodec) DecodeDetail(data []byte) (*Detail, error) {
	p, err := FrameBody(data, FrameDetail)
	if err != nil {
		return nil, err
	}
	d := &Detail{}
	var s string
	if s, p, err = FrameString(p); err != nil {
		return nil, err
	}
	d.SourceID = SourceID(s)
	if s, p, err = FrameString(p); err != nil {
		return nil, err
	}
	d.Class = ClassID(s)
	if s, p, err = FrameString(p); err != nil {
		return nil, err
	}
	d.Producer = ProducerID(s)
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, errFrameVarint
	}
	p = p[n:]
	// Each field pair needs at least two bytes (two zero-length strings),
	// so a count beyond len(p)/2 cannot be satisfied: reject it before
	// sizing the map from attacker-controlled input.
	if count > uint64(len(p))/2 {
		return nil, errFrameBomb
	}
	d.Fields = make(map[FieldName]string, count)
	for i := uint64(0); i < count; i++ {
		var name, value string
		if name, p, err = FrameString(p); err != nil {
			return nil, err
		}
		if value, p, err = FrameString(p); err != nil {
			return nil, err
		}
		d.Fields[FieldName(name)] = value
	}
	if len(p) != 0 {
		return nil, errFrameTrail
	}
	return d, nil
}

func (binaryCodec) EncodeDetailRequest(r *DetailRequest) ([]byte, error) {
	size := FrameHeaderLen +
		frameStringLen(string(r.Requester)) +
		frameStringLen(string(r.Class)) +
		frameStringLen(string(r.EventID)) +
		frameStringLen(string(r.Purpose)) +
		frameStringLen(r.Trace) +
		frameTimeLen(r.At)
	dst := make([]byte, 0, size)
	dst = AppendFrameHeader(dst, FrameDetailRequest)
	dst = AppendFrameString(dst, string(r.Requester))
	dst = AppendFrameString(dst, string(r.Class))
	dst = AppendFrameString(dst, string(r.EventID))
	dst = AppendFrameString(dst, string(r.Purpose))
	dst = AppendFrameString(dst, r.Trace)
	dst = AppendFrameTime(dst, r.At)
	return dst, nil
}

func (binaryCodec) DecodeDetailRequest(data []byte) (*DetailRequest, error) {
	p, err := FrameBody(data, FrameDetailRequest)
	if err != nil {
		return nil, err
	}
	r := &DetailRequest{}
	var s string
	if s, p, err = FrameString(p); err != nil {
		return nil, err
	}
	r.Requester = Actor(s)
	if s, p, err = FrameString(p); err != nil {
		return nil, err
	}
	r.Class = ClassID(s)
	if s, p, err = FrameString(p); err != nil {
		return nil, err
	}
	r.EventID = GlobalID(s)
	if s, p, err = FrameString(p); err != nil {
		return nil, err
	}
	r.Purpose = Purpose(s)
	if r.Trace, p, err = FrameString(p); err != nil {
		return nil, err
	}
	if r.At, p, err = FrameTime(p); err != nil {
		return nil, err
	}
	if len(p) != 0 {
		return nil, errFrameTrail
	}
	return r, nil
}
