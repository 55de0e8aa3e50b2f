// Package wire is the binary ingest protocol: a length-framed,
// CRC-checked record stream over one persistent TCP connection, built for
// the /v1/inc hot path where HTTP/1.1 request framing and JSON bodies cost
// more than the counting itself. The protocol is deliberately tiny:
//
//   - Both sides open with a HELLO frame (magic + protocol version +
//     flags). A version the server cannot speak is answered with an ERROR
//     frame and the connection closes — there is no negotiation below the
//     current version, because frame v1 is the floor format.
//
//   - After the handshake the client sends BATCH (coordinate this batch
//     across the ring) or REPL (replica-apply it locally, no re-fan-out)
//     frames, each answered in order by an ACK carrying the applied count,
//     or an ERROR carrying an HTTP-style status code and message. PING is
//     answered by PONG — a liveness probe that exercises the full framing
//     path.
//
// Every frame is independently CRC32C-protected (the same Castagnoli
// polynomial as the WAL and snapcodec), so a corrupt byte is detected at
// the frame where it happened, not three batches later as a misparse. A
// framing-level fault (bad magic, bad CRC, oversized length) poisons the
// stream position itself and closes the connection; a semantic fault (key
// out of range, oversized batch) is an ERROR reply on a healthy stream and
// the connection stays open.
//
// Batch payloads are varint+delta packed (batch.go): the client coalesces
// events per destination into sorted (key, count) pairs, so a Zipf burst of
// thousands of events ships as a few hundred bytes. The server decodes the
// pairs back into the flat key slice the store's WAL-stage+apply path
// already takes — the wire is a transport, not a new ingest semantics, and
// kill -9 recovery replays wire-ingested batches exactly like HTTP ones.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Magic opens every HELLO payload: "NYW" + format version 1, mirroring
// snapcodec's "NYS\x01" and the WAL's "NYWAL001" magics.
const Magic = "NYW\x01"

// ProtocolVersion is the wire protocol version spoken by this build. It is
// carried in the HELLO frame and reported by /v1/healthz, so operators can see
// at a glance which protocol a node serves.
const ProtocolVersion = 1

// Frame types. Values are part of the on-wire format (docs/FORMAT.md).
const (
	FrameHello = byte(1) // handshake: magic + version + flags
	FrameBatch = byte(2) // coordinate an increment batch across the ring
	FrameRepl  = byte(3) // replica-apply an increment batch locally
	FrameAck   = byte(4) // success reply: uvarint applied-event count
	FrameError = byte(5) // failure reply: uvarint code + utf-8 message
	FramePing  = byte(6) // liveness probe
	FramePong  = byte(7) // liveness reply

	// Rebalance handoff (added in PR 7; a v1 peer that predates them
	// answers ERROR 400, and the rebalancer falls back to HTTP).
	FrameFetch = byte(8) // pull one partition snapshot: uvarint partition + uvarint ring version
	FrameSnap  = byte(9) // fetch reply: role byte + snapcodec partition snapshot

	// Delta anti-entropy and epoch-tagged replication (added with the v5
	// delta snapshot codec; a peer that predates them answers ERROR 400 and
	// the caller falls back to the HTTP surface).
	FrameBHash   = byte(10) // pull per-block hashes: uvarint partition
	FrameBHashes = byte(11) // bhash reply: uvarint version + uvarint count + count × u64 FNV-1a hashes
	FrameBDelta  = byte(12) // pull divergent blocks: uvarint partition + uvarint count + gap-coded block list
	FrameDelta   = byte(13) // bdelta reply: snapcodec delta snapshot blob
	FrameReplAt  = byte(14) // replica-apply at an origin bucket epoch: uvarint epoch + packed batch
)

// FrameName returns the lowercase mnemonic of a frame type ("batch",
// "snap", ...) or "unknown". Metrics label frames by it.
func FrameName(typ byte) string {
	switch typ {
	case FrameHello:
		return "hello"
	case FrameBatch:
		return "batch"
	case FrameRepl:
		return "repl"
	case FrameAck:
		return "ack"
	case FrameError:
		return "error"
	case FramePing:
		return "ping"
	case FramePong:
		return "pong"
	case FrameFetch:
		return "fetch"
	case FrameSnap:
		return "snap"
	case FrameBHash:
		return "bhash"
	case FrameBHashes:
		return "bhashes"
	case FrameBDelta:
		return "bdelta"
	case FrameDelta:
		return "delta"
	case FrameReplAt:
		return "replat"
	}
	return "unknown"
}

// Handoff source roles carried in the first byte of a SNAP payload: the
// source tells the puller whether its copy is a live owner's (absorbed the
// same post-flip stream — join with the idempotent max) or a frozen
// surrendered copy (disjoint from the puller's post-flip stream — join with
// the Remark 2.4 merge).
const (
	RoleOwner  = byte(1)
	RoleFrozen = byte(2)
)

// MaxFramePayload caps one frame's payload. A coalesced 64k-event batch of
// 20-bit keys packs into well under 1 MiB; 16 MiB matches the HTTP path's
// maxIncBody so neither transport accepts what the other must reject.
const MaxFramePayload = 16 << 20

// frameOverhead is the fixed byte cost around a payload: type (1) +
// length (4) + CRC32C (4).
const frameOverhead = 9

// castagnoli is the CRC32C table shared with the WAL and snapcodec framing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrFrameTooLarge reports a frame whose declared length exceeds
// MaxFramePayload — a protocol violation, not a transient condition.
var ErrFrameTooLarge = errors.New("wire: frame exceeds max payload")

// ErrBadCRC reports a frame whose checksum does not match its bytes.
var ErrBadCRC = errors.New("wire: frame CRC mismatch")

// ErrBadHandshake reports a HELLO that is missing, malformed, or from an
// incompatible protocol version.
var ErrBadHandshake = errors.New("wire: bad handshake")

// RemoteError is a server-reported failure: the wire-level twin of a non-2xx
// HTTP status. Code uses HTTP status vocabulary (400 caller fault, 500
// server fault) so both transports share one error taxonomy.
type RemoteError struct {
	Code int
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("wire: remote error %d: %s", e.Code, e.Msg)
}

// AppendFrame appends one framed record to dst and returns the extended
// slice: type byte, little-endian u32 payload length, payload, then a
// little-endian CRC32C over everything before it (type + length + payload).
func AppendFrame(dst []byte, typ byte, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, typ)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	crc := crc32.Checksum(dst[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// WriteFrame writes one framed record to w.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxFramePayload {
		return ErrFrameTooLarge
	}
	buf := make([]byte, 0, len(payload)+frameOverhead)
	_, err := w.Write(AppendFrame(buf, typ, payload))
	return err
}

// ReadFrame reads one framed record from r, verifying length bounds and the
// CRC. scratch (may be nil) is reused for the payload when large enough, so
// a read loop allocates only while frames keep growing. The returned payload
// aliases scratch's backing array — it is valid until the next ReadFrame
// with the same scratch.
//
// Length is validated BEFORE any payload allocation: a hostile 4 GiB length
// costs nothing but the 9 header bytes already read.
func ReadFrame(r io.Reader, scratch []byte) (typ byte, payload, scratch2 []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, scratch, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > MaxFramePayload {
		return 0, nil, scratch, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if cap(scratch) < int(n) {
		scratch = make([]byte, n)
	}
	payload = scratch[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, scratch, err
	}
	var want [4]byte
	if _, err := io.ReadFull(r, want[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, scratch, err
	}
	crc := crc32.Checksum(hdr[:], castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	if crc != binary.LittleEndian.Uint32(want[:]) {
		return 0, nil, scratch, ErrBadCRC
	}
	return hdr[0], payload, scratch, nil
}

// helloPayload is the HELLO frame body: magic (4) + version u16 + flags u16.
func helloPayload() []byte {
	p := make([]byte, 0, 8)
	p = append(p, Magic...)
	p = binary.LittleEndian.AppendUint16(p, ProtocolVersion)
	p = binary.LittleEndian.AppendUint16(p, 0) // flags, reserved
	return p
}

// parseHello validates a HELLO payload and returns the peer's version.
func parseHello(payload []byte) (version int, err error) {
	if len(payload) != 8 {
		return 0, fmt.Errorf("%w: hello payload %d bytes, want 8", ErrBadHandshake, len(payload))
	}
	if string(payload[:4]) != Magic {
		return 0, fmt.Errorf("%w: bad magic %q", ErrBadHandshake, payload[:4])
	}
	v := int(binary.LittleEndian.Uint16(payload[4:6]))
	if v != ProtocolVersion {
		return 0, fmt.Errorf("%w: version %d, this build speaks %d", ErrBadHandshake, v, ProtocolVersion)
	}
	return v, nil
}

// errorPayload encodes an ERROR frame body: uvarint code + message bytes.
func errorPayload(code int, msg string) []byte {
	if len(msg) > 512 {
		msg = msg[:512]
	}
	p := make([]byte, 0, len(msg)+4)
	p = binary.AppendUvarint(p, uint64(code))
	return append(p, msg...)
}

// parseError decodes an ERROR frame body.
func parseError(payload []byte) error {
	code, n := binary.Uvarint(payload)
	if n <= 0 || code > 999 {
		return &RemoteError{Code: 500, Msg: "undecodable error frame"}
	}
	return &RemoteError{Code: int(code), Msg: string(payload[n:])}
}

// fetchPayload encodes a FETCH frame body: uvarint partition + uvarint ring
// version.
func fetchPayload(partition int, ringVer uint64) []byte {
	p := binary.AppendUvarint(make([]byte, 0, 20), uint64(partition))
	return binary.AppendUvarint(p, ringVer)
}

// parseFetch decodes a FETCH frame body.
func parseFetch(payload []byte) (partition int, ringVer uint64, err error) {
	p, n := binary.Uvarint(payload)
	if n <= 0 || p > 1<<31-1 {
		return 0, 0, errors.New("wire: undecodable fetch frame")
	}
	v, m := binary.Uvarint(payload[n:])
	if m <= 0 || n+m != len(payload) {
		return 0, 0, errors.New("wire: undecodable fetch frame")
	}
	return int(p), v, nil
}

// snapPayload encodes a SNAP frame body: role byte + snapshot blob.
func snapPayload(role byte, blob []byte) []byte {
	p := make([]byte, 0, 1+len(blob))
	p = append(p, role)
	return append(p, blob...)
}

// parseSnap decodes a SNAP frame body.
func parseSnap(payload []byte) (role byte, blob []byte, err error) {
	if len(payload) < 1 {
		return 0, nil, errors.New("wire: empty snap frame")
	}
	role = payload[0]
	if role != RoleOwner && role != RoleFrozen {
		return 0, nil, fmt.Errorf("wire: unknown handoff role %d", role)
	}
	return role, payload[1:], nil
}

// bhashPayload encodes a BHASH frame body: the uvarint partition whose
// per-block register hashes the caller wants.
func bhashPayload(partition int) []byte {
	return binary.AppendUvarint(make([]byte, 0, 10), uint64(partition))
}

// parseBHash decodes a BHASH frame body.
func parseBHash(payload []byte) (partition int, err error) {
	p, n := binary.Uvarint(payload)
	if n <= 0 || n != len(payload) || p > 1<<31-1 {
		return 0, errors.New("wire: undecodable bhash frame")
	}
	return int(p), nil
}

// bhashesPayload encodes a BHASHES reply body: the partition's write version
// (uvarint), the block count (uvarint), then one little-endian u64 FNV-1a
// hash per snapcodec block of the partition's register section.
func bhashesPayload(version uint64, hashes []uint64) []byte {
	p := binary.AppendUvarint(make([]byte, 0, 20+8*len(hashes)), version)
	p = binary.AppendUvarint(p, uint64(len(hashes)))
	for _, h := range hashes {
		p = binary.LittleEndian.AppendUint64(p, h)
	}
	return p
}

// parseBHashes decodes a BHASHES reply body.
func parseBHashes(payload []byte) (version uint64, hashes []uint64, err error) {
	v, n := binary.Uvarint(payload)
	if n <= 0 {
		return 0, nil, errors.New("wire: undecodable bhashes frame")
	}
	count, m := binary.Uvarint(payload[n:])
	rest := payload[n+m:]
	if m <= 0 || uint64(len(rest)) != 8*count {
		return 0, nil, errors.New("wire: undecodable bhashes frame")
	}
	hashes = make([]uint64, count)
	for i := range hashes {
		hashes[i] = binary.LittleEndian.Uint64(rest[8*i:])
	}
	return v, hashes, nil
}

// bdeltaPayload encodes a BDELTA frame body: uvarint partition, uvarint
// block count, then the strictly-ascending block list gap-coded exactly like
// snapcodec's delta section (first index absolute, then gaps ≥ 1).
func bdeltaPayload(partition int, blocks []uint32) []byte {
	p := binary.AppendUvarint(make([]byte, 0, 20+2*len(blocks)), uint64(partition))
	p = binary.AppendUvarint(p, uint64(len(blocks)))
	prev := uint64(0)
	for i, b := range blocks {
		if i == 0 {
			p = binary.AppendUvarint(p, uint64(b))
		} else {
			p = binary.AppendUvarint(p, uint64(b)-prev)
		}
		prev = uint64(b)
	}
	return p
}

// parseBDelta decodes a BDELTA frame body, enforcing the strictly-ascending
// block order the gap coding implies.
func parseBDelta(payload []byte) (partition int, blocks []uint32, err error) {
	bad := errors.New("wire: undecodable bdelta frame")
	p, n := binary.Uvarint(payload)
	if n <= 0 || p > 1<<31-1 {
		return 0, nil, bad
	}
	rest := payload[n:]
	count, m := binary.Uvarint(rest)
	if m <= 0 || count > uint64(len(rest)) { // each block costs ≥ 1 byte
		return 0, nil, bad
	}
	rest = rest[m:]
	blocks = make([]uint32, count)
	prev := uint64(0)
	for i := range blocks {
		v, sz := binary.Uvarint(rest)
		if sz <= 0 {
			return 0, nil, bad
		}
		rest = rest[sz:]
		if i > 0 {
			if v == 0 || prev+v > 1<<31-1 {
				return 0, nil, bad
			}
			v += prev
		} else if v > 1<<31-1 {
			return 0, nil, bad
		}
		blocks[i] = uint32(v)
		prev = v
	}
	if len(rest) != 0 {
		return 0, nil, bad
	}
	return int(p), blocks, nil
}

// ackPayload encodes an ACK frame body: the uvarint applied-event count.
func ackPayload(applied int) []byte {
	return binary.AppendUvarint(make([]byte, 0, 10), uint64(applied))
}

// parseAck decodes an ACK frame body.
func parseAck(payload []byte) (int, error) {
	v, n := binary.Uvarint(payload)
	if n <= 0 || n != len(payload) {
		return 0, errors.New("wire: undecodable ack frame")
	}
	return int(v), nil
}
