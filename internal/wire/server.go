package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Sink is what a wire server feeds: the same two ingest verbs the HTTP
// surface exposes. BATCH frames call Batch (the coordinated write path —
// ring fan-out in cluster mode, a plain store apply single-node); REPL
// frames call Repl (replica-apply only, never re-fanned-out — the verb
// behind /v1/cluster/repl). Both return the number of events applied.
type Sink interface {
	Batch(keys []int) (applied int, err error)
	Repl(keys []int) (applied int, err error)
}

// HandoffSink is the optional third verb a sink may implement: serving
// FETCH frames (the rebalance partition pull, see internal/cluster). A sink
// without it answers FETCH with ERROR 400, exactly like a pre-handoff build
// — the rebalancer then falls back to the HTTP handoff endpoint. Fetch
// returns the source's role (RoleOwner for a live owner's copy, RoleFrozen
// for a surrendered frozen copy) and the snapcodec partition snapshot; an
// error is mapped through ServerConfig.ErrorCode like every sink error.
type HandoffSink interface {
	Fetch(partition int, ringVer uint64) (role byte, blob []byte, err error)
}

// DeltaSink is the optional pair of verbs behind delta anti-entropy: BHASH
// frames call BlockHashes (the partition's write version plus one FNV-1a
// hash per snapcodec block of its register section), BDELTA frames call
// BlockDelta (a snapcodec delta snapshot carrying only the requested
// blocks). A sink without it answers both with ERROR 400, and the syncing
// peer falls back to the HTTP block-delta endpoints (or to a full-partition
// exchange against a pre-delta build).
type DeltaSink interface {
	BlockHashes(partition int) (version uint64, hashes []uint64, err error)
	BlockDelta(partition int, blocks []uint32) (blob []byte, err error)
}

// EpochSink is the optional epoch-tagged spelling of Repl: REPLAT frames
// carry the origin node's bucket epoch so a windowed receiver heals the
// hinted keys into the bucket they were counted in (or drops them once that
// bucket rotated out) instead of smearing them into the current one. A sink
// without it answers ERROR 400 and the drainer falls back to the HTTP repl
// path, which carries the same epoch in JSON.
type EpochSink interface {
	ReplAt(keys []int, epoch uint64) (applied int, err error)
}

// ServerConfig tunes a wire Server.
type ServerConfig struct {
	// MaxBatch caps the events accepted in one BATCH/REPL frame (0 = 1<<16,
	// the store default). Must match the sink's own cap or oversized frames
	// get a 400 from the sink instead of the decoder — same outcome, worse
	// message.
	MaxBatch int
	// MaxKey bounds accepted keys to [0, MaxKey) at decode time (0 = no
	// wire-level bound; the sink still validates).
	MaxKey int
	// ErrorCode maps a sink error to the HTTP-style status code carried in
	// ERROR frames (default: 500 for everything — wire callers should pass
	// the same classifier the HTTP layer uses).
	ErrorCode func(error) int
	// IdleTimeout closes a connection with no inbound frames for this long
	// (0 = no timeout). Persistent clients ping within it.
	IdleTimeout time.Duration
	// Logf receives per-connection fault lines (default: silent).
	Logf func(format string, args ...any)
	// Metrics, when non-nil, receives wire_* instrumentation: frames
	// in/out by type, decode errors, and open/total connection counts.
	Metrics *metrics.Registry
}

// Server accepts persistent wire connections and pumps their frames into a
// Sink. One goroutine per connection; frames on a connection are processed
// strictly in order, so acks need no sequence numbers.
type Server struct {
	cfg  ServerConfig
	sink Sink

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	done  chan struct{}

	// Instrumentation; all nil (no-op) unless ServerConfig.Metrics was set.
	mFramesIn   *metrics.CounterVec
	mFramesOut  *metrics.CounterVec
	mDecodeErrs *metrics.Counter
	mConns      *metrics.Gauge
	mConnsTotal *metrics.Counter
}

// NewServer builds a wire server over sink.
func NewServer(sink Sink, cfg ServerConfig) *Server {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1 << 16
	}
	if cfg.ErrorCode == nil {
		cfg.ErrorCode = func(error) int { return 500 }
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:   cfg,
		sink:  sink,
		conns: make(map[net.Conn]struct{}),
		done:  make(chan struct{}),
	}
	if m := cfg.Metrics; m != nil {
		s.mFramesIn = m.CounterVec("counterd_wire_frames_in_total",
			"Wire frames received, by type.", "type")
		s.mFramesOut = m.CounterVec("counterd_wire_frames_out_total",
			"Wire frames sent, by type.", "type")
		s.mDecodeErrs = m.Counter("counterd_wire_decode_errors_total",
			"Inbound frames rejected at decode (framing or batch payload).")
		s.mConns = m.Gauge("counterd_wire_connections",
			"Open wire connections.")
		s.mConnsTotal = m.Counter("counterd_wire_connections_total",
			"Wire connections accepted since start.")
	}
	return s
}

// Serve accepts connections on ln until Close. It returns nil after Close,
// or the accept error that stopped it.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return nil
			default:
				return err
			}
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Close stops accepting and tears down every open connection. Safe to call
// more than once.
func (s *Server) Close() {
	s.mu.Lock()
	select {
	case <-s.done:
	default:
		close(s.done)
	}
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

func (s *Server) serveConn(conn net.Conn) {
	s.mConnsTotal.Inc()
	s.mConns.Add(1)
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.mConns.Add(-1)
	}()

	fail := func(stage string, err error) {
		// EOF / closed-connection ends are the normal client hangup; only
		// protocol faults are worth a log line.
		if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
			return
		}
		s.cfg.Logf("wire: %s: %s: %v", conn.RemoteAddr(), stage, err)
	}

	touch := func() {
		if s.cfg.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
	}

	br := bufio.NewReaderSize(conn, 64<<10)

	// Handshake: HELLO in, HELLO out. A bad hello gets an ERROR frame (best
	// effort — the peer may not even speak the framing) and the connection
	// dies.
	touch()
	typ, payload, scratch, err := ReadFrame(br, nil)
	if err != nil {
		fail("handshake read", err)
		return
	}
	s.mFramesIn.With(FrameName(typ)).Inc()
	if typ != FrameHello {
		s.mDecodeErrs.Inc()
		s.writeFrame(conn, FrameError, errorPayload(400, "expected HELLO"))
		fail("handshake", fmt.Errorf("first frame type %d", typ))
		return
	}
	if _, err := parseHello(payload); err != nil {
		s.mDecodeErrs.Inc()
		s.writeFrame(conn, FrameError, errorPayload(400, err.Error()))
		fail("handshake", err)
		return
	}
	if err := s.writeFrame(conn, FrameHello, helloPayload()); err != nil {
		fail("handshake write", err)
		return
	}

	out := make([]byte, 0, 4096)
	for {
		touch()
		typ, payload, scratch, err = ReadFrame(br, scratch)
		if err != nil {
			// Framing faults poison the stream position; there is no safe
			// way to answer on a stream we can no longer parse.
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) &&
				!errors.Is(err, os.ErrDeadlineExceeded) {
				s.mDecodeErrs.Inc()
			}
			fail("read", err)
			return
		}
		s.mFramesIn.With(FrameName(typ)).Inc()
		out = out[:0]
		var outType byte
		switch typ {
		case FramePing:
			outType = FramePong
			out = AppendFrame(out, FramePong, nil)
		case FrameBatch, FrameRepl:
			keys, err := DecodeBatch(payload, s.cfg.MaxBatch, s.cfg.MaxKey)
			var applied int
			if err == nil {
				applied, err = s.dispatch(typ, keys)
			}
			switch {
			case errors.Is(err, ErrBadBatch):
				s.mDecodeErrs.Inc()
				outType = FrameError
				out = AppendFrame(out, FrameError, errorPayload(400, err.Error()))
			case err != nil:
				outType = FrameError
				out = AppendFrame(out, FrameError, errorPayload(s.cfg.ErrorCode(err), err.Error()))
			default:
				outType = FrameAck
				out = AppendFrame(out, FrameAck, ackPayload(applied))
			}
		case FrameFetch:
			hs, ok := s.sink.(HandoffSink)
			if !ok {
				outType = FrameError
				out = AppendFrame(out, FrameError, errorPayload(400, "handoff not supported"))
				break
			}
			partition, ringVer, err := parseFetch(payload)
			var role byte
			var blob []byte
			if err == nil {
				role, blob, err = hs.Fetch(partition, ringVer)
			}
			switch {
			case err != nil:
				outType = FrameError
				out = AppendFrame(out, FrameError, errorPayload(s.cfg.ErrorCode(err), err.Error()))
			case len(blob)+1 > MaxFramePayload:
				outType = FrameError
				out = AppendFrame(out, FrameError, errorPayload(500, "partition snapshot exceeds frame cap"))
			default:
				outType = FrameSnap
				out = AppendFrame(out, FrameSnap, snapPayload(role, blob))
			}
		case FrameReplAt:
			es, ok := s.sink.(EpochSink)
			if !ok {
				outType = FrameError
				out = AppendFrame(out, FrameError, errorPayload(400, "epoch-tagged repl not supported"))
				break
			}
			epoch, n := binary.Uvarint(payload)
			var keys []int
			var applied int
			var err error
			if n <= 0 {
				err = fmt.Errorf("%w: bad epoch prefix", ErrBadBatch)
			} else {
				keys, err = DecodeBatch(payload[n:], s.cfg.MaxBatch, s.cfg.MaxKey)
			}
			if err == nil {
				applied, err = es.ReplAt(keys, epoch)
			}
			switch {
			case errors.Is(err, ErrBadBatch):
				s.mDecodeErrs.Inc()
				outType = FrameError
				out = AppendFrame(out, FrameError, errorPayload(400, err.Error()))
			case err != nil:
				outType = FrameError
				out = AppendFrame(out, FrameError, errorPayload(s.cfg.ErrorCode(err), err.Error()))
			default:
				outType = FrameAck
				out = AppendFrame(out, FrameAck, ackPayload(applied))
			}
		case FrameBHash:
			ds, ok := s.sink.(DeltaSink)
			if !ok {
				outType = FrameError
				out = AppendFrame(out, FrameError, errorPayload(400, "block hashes not supported"))
				break
			}
			partition, err := parseBHash(payload)
			var ver uint64
			var hashes []uint64
			if err == nil {
				ver, hashes, err = ds.BlockHashes(partition)
			}
			switch {
			case err != nil:
				outType = FrameError
				out = AppendFrame(out, FrameError, errorPayload(s.cfg.ErrorCode(err), err.Error()))
			default:
				outType = FrameBHashes
				out = AppendFrame(out, FrameBHashes, bhashesPayload(ver, hashes))
			}
		case FrameBDelta:
			ds, ok := s.sink.(DeltaSink)
			if !ok {
				outType = FrameError
				out = AppendFrame(out, FrameError, errorPayload(400, "block deltas not supported"))
				break
			}
			partition, blocks, err := parseBDelta(payload)
			var blob []byte
			if err == nil {
				blob, err = ds.BlockDelta(partition, blocks)
			}
			switch {
			case err != nil:
				outType = FrameError
				out = AppendFrame(out, FrameError, errorPayload(s.cfg.ErrorCode(err), err.Error()))
			case len(blob) > MaxFramePayload:
				outType = FrameError
				out = AppendFrame(out, FrameError, errorPayload(500, "block delta exceeds frame cap"))
			default:
				outType = FrameDelta
				out = AppendFrame(out, FrameDelta, blob)
			}
		default:
			s.mDecodeErrs.Inc()
			outType = FrameError
			out = AppendFrame(out, FrameError, errorPayload(400, fmt.Sprintf("unknown frame type %d", typ)))
		}
		if _, err := conn.Write(out); err != nil {
			fail("write", err)
			return
		}
		s.mFramesOut.With(FrameName(outType)).Inc()
	}
}

// dispatch routes a decoded batch to the sink verb for typ.
func (s *Server) dispatch(typ byte, keys []int) (int, error) {
	if typ == FrameBatch {
		return s.sink.Batch(keys)
	}
	return s.sink.Repl(keys)
}

// writeFrame writes one frame and counts it when instrumented.
func (s *Server) writeFrame(conn net.Conn, typ byte, payload []byte) error {
	err := WriteFrame(conn, typ, payload)
	if err == nil {
		s.mFramesOut.With(FrameName(typ)).Inc()
	}
	return err
}
