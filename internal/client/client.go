// Package client is the smart cluster client: it learns the ring from any
// node (GET /v1/cluster/ring), rebuilds the identical consistent-hash ring
// locally, and routes every increment and estimate straight to a replica
// that owns the key's partition — no proxy hop, no load balancer. Writes
// are shard-batched: keys buffer per destination node and flush as one
// batch per node — over the binary wire protocol when the node advertises
// a wire listener (one delta-packed frame on a persistent connection), over
// POST /v1/inc otherwise — so a Zipf stream against a 3-node ring costs three
// persistent streams, not one request per key.
//
// A Client is not safe for concurrent use (each goroutine of a load driver
// gets its own; they share nothing but the cluster). On routing errors it
// fails over to the other replicas and refreshes the ring.
package client

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/snapcodec"
	"repro/internal/wire"
)

// Transport names for Config.Transport.
const (
	// TransportAuto sends batches over the wire protocol to nodes that
	// gossip a wire address and over HTTP to nodes that do not, falling
	// back to HTTP when a wire send fails at the transport level.
	TransportAuto = "auto"
	// TransportHTTP forces JSON-over-HTTP for every batch.
	TransportHTTP = "http"
	// TransportWire forces the wire protocol; a destination without an
	// advertised wire address is an error instead of a silent downgrade.
	TransportWire = "wire"
)

// Config tunes a Client.
type Config struct {
	// Seeds are node base URLs; the first one that answers
	// GET /v1/cluster/ring bootstraps the ring.
	Seeds []string
	// BatchSize is the per-destination buffer flushed as one batch
	// (default 1024).
	BatchSize int
	// MaxDelay bounds how long an event may sit in a destination buffer
	// before the buffer flushes even when not full — the time half of the
	// "N ms or M events" coalescing contract. 0 (default) disables the
	// timer: buffers flush on size or explicit Flush only. The check rides
	// the Inc path (the client has no background goroutine), so a silent
	// client still needs Flush.
	MaxDelay time.Duration
	// Transport selects the batch transport: TransportAuto (default),
	// TransportHTTP, or TransportWire.
	Transport string
	// HTTPTimeout is the per-request deadline, for both transports
	// (default 5s).
	HTTPTimeout time.Duration
}

// Client routes increments and estimates to partition owners.
type Client struct {
	cfg  Config
	hc   *http.Client
	pool *wire.Pool // persistent wire conns, one per destination
	ring *cluster.Ring
	info cluster.RingInfo
	// reps caches ring.Replicas per partition: the per-event hot path
	// (Inc) then costs one multiply and one slice index instead of a hash
	// walk and three allocations per key.
	reps [][]string
	// wires maps node ID → advertised wire address ("" = HTTP only),
	// rebuilt from the member table on every Refresh.
	wires map[string]string
	bufs  map[string][]int     // destination → pending keys
	since map[string]time.Time // destination → first buffered event's arrival

	// stats accumulates the client's routing-health counters (plain fields:
	// the client is documented single-goroutine; Stats() folds in the wire
	// pool's own atomic dial counters).
	stats Stats
}

// Stats is a snapshot of the client's routing-health counters: how often
// the ring moved under it, how often reads hit a mid-rebalance 421, and
// how often the wire transport needed recovery. Load drivers report it so
// a bench run shows not just throughput but how much routing churn the
// client absorbed to deliver it.
type Stats struct {
	// RingRefreshes counts Refresh calls — the initial bootstrap plus every
	// re-fetch triggered by a routing failure.
	RingRefreshes uint64 `json:"ringRefreshes"`
	// MisdirectedRetries counts 421 (Misdirected Request) answers — a read
	// routed to a replica whose partition was still rebalancing, retried on
	// the next replica or after a refresh.
	MisdirectedRetries uint64 `json:"misdirectedRetries"`
	// Failovers counts write batches whose primary destination failed and
	// that were re-offered to the partition's other replicas.
	Failovers uint64 `json:"failovers"`
	// HTTPFallbacks counts batches downgraded from the wire transport to
	// POST /v1/inc after a wire transport-level failure (TransportAuto only).
	HTTPFallbacks uint64 `json:"httpFallbacks"`
	// WireDials / WireRedials mirror the wire pool: total connections
	// dialed, and how many replaced a pooled connection that failed.
	WireDials   uint64 `json:"wireDials"`
	WireRedials uint64 `json:"wireRedials"`
}

// Stats returns a snapshot of the client's routing-health counters.
func (c *Client) Stats() Stats {
	s := c.stats
	s.WireDials = c.pool.Dials()
	s.WireRedials = c.pool.Redials()
	return s
}

// New builds a client and fetches the ring from the first answering seed.
func New(cfg Config) (*Client, error) {
	if len(cfg.Seeds) == 0 {
		return nil, errors.New("client: no seed nodes")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1024
	}
	if cfg.HTTPTimeout <= 0 {
		cfg.HTTPTimeout = 5 * time.Second
	}
	switch cfg.Transport {
	case "":
		cfg.Transport = TransportAuto
	case TransportAuto, TransportHTTP, TransportWire:
	default:
		return nil, fmt.Errorf("client: unknown transport %q (want %q, %q, or %q)",
			cfg.Transport, TransportAuto, TransportHTTP, TransportWire)
	}
	c := &Client{
		cfg:   cfg,
		hc:    &http.Client{Timeout: cfg.HTTPTimeout},
		pool:  wire.NewPool(cfg.HTTPTimeout),
		bufs:  make(map[string][]int),
		since: make(map[string]time.Time),
	}
	if err := c.Refresh(); err != nil {
		return nil, err
	}
	return c, nil
}

// Refresh re-fetches the ring from the seeds (trying live members too, so a
// client outlives its original seed).
func (c *Client) Refresh() error {
	c.stats.RingRefreshes++
	tried := map[string]bool{}
	candidates := append([]string(nil), c.cfg.Seeds...)
	if c.ring != nil {
		candidates = append(candidates, c.ring.Members()...)
	}
	var lastErr error
	for _, seed := range candidates {
		if tried[seed] {
			continue
		}
		tried[seed] = true
		info, err := c.fetchRing(seed)
		if err != nil {
			lastErr = err
			continue
		}
		var members []string
		wires := make(map[string]string)
		for _, m := range info.Members {
			if m.State != cluster.StateDead {
				members = append(members, m.ID)
				wires[m.ID] = m.Wire
			}
		}
		c.info = info
		c.wires = wires
		c.ring = cluster.NewRing(members, info.RF, info.VNodes)
		c.reps = make([][]string, info.Partitions)
		for p := range c.reps {
			c.reps[p] = c.ring.Replicas(p)
		}
		return nil
	}
	return fmt.Errorf("client: no seed answered: %w", lastErr)
}

func (c *Client) fetchRing(seed string) (cluster.RingInfo, error) {
	var info cluster.RingInfo
	resp, err := c.hc.Get(seed + "/v1/cluster/ring")
	if err != nil {
		return info, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return info, fmt.Errorf("%s/v1/cluster/ring: status %d", seed, resp.StatusCode)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&info); err != nil {
		return info, err
	}
	if info.N <= 0 || info.Partitions <= 0 {
		return info, fmt.Errorf("%s/v1/cluster/ring: degenerate shape %d keys / %d partitions", seed, info.N, info.Partitions)
	}
	return info, nil
}

// N returns the cluster's key-space size.
func (c *Client) N() int { return c.info.N }

// Partitions returns the cluster's partition count.
func (c *Client) Partitions() int { return c.info.Partitions }

// Ring returns the client's current view of the ring.
func (c *Client) Ring() *cluster.Ring { return c.ring }

// replicasFor returns the replica set owning key k (shared cached slice —
// read-only).
func (c *Client) replicasFor(k int) []string {
	return c.reps[snapcodec.PartitionOf(k, c.info.N, c.info.Partitions)]
}

// Inc buffers one event for key k, flushing the destination's batch when it
// fills (BatchSize) or when its oldest buffered event has waited MaxDelay.
func (c *Client) Inc(k int) error {
	if k < 0 || k >= c.info.N {
		return fmt.Errorf("client: key %d out of range [0,%d)", k, c.info.N)
	}
	reps := c.replicasFor(k)
	if len(reps) == 0 {
		return errors.New("client: empty ring")
	}
	dest := reps[0]
	if len(c.bufs[dest]) == 0 {
		c.since[dest] = time.Now()
	}
	c.bufs[dest] = append(c.bufs[dest], k)
	if len(c.bufs[dest]) >= c.cfg.BatchSize ||
		(c.cfg.MaxDelay > 0 && time.Since(c.since[dest]) >= c.cfg.MaxDelay) {
		return c.flushDest(dest)
	}
	return nil
}

// IncBatch buffers a batch of events (one per key occurrence).
func (c *Client) IncBatch(keys []int) error {
	for _, k := range keys {
		if err := c.Inc(k); err != nil {
			return err
		}
	}
	return nil
}

// Flush sends every buffered batch. The client guarantees acked-or-error:
// a batch that cannot be delivered to any replica of its partition (even
// after a ring refresh) is reported, not dropped silently.
func (c *Client) Flush() error {
	for dest := range c.bufs {
		if err := c.flushDest(dest); err != nil {
			return err
		}
	}
	return nil
}

func (c *Client) flushDest(dest string) error {
	keys := c.bufs[dest]
	if len(keys) == 0 {
		return nil
	}
	done := func() {
		delete(c.bufs, dest)
		delete(c.since, dest)
	}
	err := c.send(dest, keys)
	if err == nil {
		done()
		return nil
	}
	// The primary is unreachable: any replica of the batch's partitions can
	// coordinate (each node re-routes keys it does not own), so fail over
	// through the other replicas of the first key, then refresh and retry.
	c.stats.Failovers++
	reps := c.replicasFor(keys[0])
	for _, alt := range reps[1:] {
		if c.send(alt, keys) == nil {
			done()
			return nil
		}
	}
	if rerr := c.Refresh(); rerr == nil {
		for _, alt := range c.replicasFor(keys[0]) {
			if c.send(alt, keys) == nil {
				done()
				return nil
			}
		}
	}
	return fmt.Errorf("client: flush to %s: %w", dest, err)
}

// send ships one batch to dest over the configured transport. Under
// TransportAuto a destination with a gossiped wire address gets one
// delta-packed BATCH frame on the pooled persistent connection; a wire
// transport failure downgrades to HTTP for this batch (a *wire.RemoteError
// does not — the server answered, HTTP would reject identically).
func (c *Client) send(dest string, keys []int) error {
	wa := c.wires[dest]
	switch c.cfg.Transport {
	case TransportHTTP:
		return c.post(dest, keys)
	case TransportWire:
		if wa == "" {
			return fmt.Errorf("client: %s advertises no wire address", dest)
		}
		_, err := c.pool.SendBatch(wa, keys)
		return err
	}
	if wa == "" {
		return c.post(dest, keys)
	}
	_, err := c.pool.SendBatch(wa, keys)
	if err == nil {
		return nil
	}
	var re *wire.RemoteError
	if errors.As(err, &re) {
		return err
	}
	c.stats.HTTPFallbacks++
	return c.post(dest, keys)
}

func (c *Client) post(dest string, keys []int) error {
	body, err := json.Marshal(map[string][]int{"keys": keys})
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(dest+"/v1/inc", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s/v1/inc: status %d: %s", dest, resp.StatusCode, bytes.TrimSpace(msg))
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// Close flushes pending batches and tears down pooled wire connections.
func (c *Client) Close() error {
	err := c.Flush()
	c.pool.Close()
	return err
}
