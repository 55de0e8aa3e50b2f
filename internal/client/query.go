package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/snapcodec"
)

// QueryKind selects what a Query computes.
type QueryKind string

const (
	// KindEstimate answers one key's estimate (Result.Estimate).
	KindEstimate QueryKind = "estimate"
	// KindEstimateAll answers every key's estimate (Result.Estimates),
	// stitched partition by partition from each partition's own replicas —
	// the authoritative copy of each range, not one node's view of all.
	KindEstimateAll QueryKind = "estimates"
	// KindTopK answers the cluster-wide top-k (Result.TopK): every
	// partition's replicas report their partition-local top k, and the
	// disjoint reports merge client-side by concatenate-sort-truncate.
	KindTopK QueryKind = "topk"
	// KindDistinct answers the cluster-wide unique-key count
	// (Result.Estimate) on distinct-engine clusters: partitions tile
	// disjoint key ranges, so each partition's cardinality comes from a
	// replica that owns it and the disjoint scalars sum client-side.
	KindDistinct QueryKind = "distinct"
	// KindF2 answers the cluster-wide second frequency moment
	// (Result.Estimate) on f2-engine clusters, summed per partition the
	// same way.
	KindF2 QueryKind = "f2"
)

// QueryOptions parameterizes a Query. Zero values mean "not set"; which
// fields are required depends on Kind.
type QueryOptions struct {
	Kind QueryKind
	// Key is the key to estimate (KindEstimate).
	Key int
	// K is how many entries to return (KindTopK), at most server.MaxTopK.
	K int
	// Window scopes the answer to the trailing window on window-engine
	// clusters — a duration ("5m") or bucket count ("3"), forwarded
	// verbatim as ?window=. Other engines answer 400. Empty = all time.
	Window string
	// Transport is reserved: queries always travel HTTP, because the wire
	// protocol (internal/wire) carries ingest only. "" and TransportHTTP
	// are accepted; anything else errors rather than silently downgrading.
	Transport string
}

// Result is a Query's answer; the field matching the Kind is set.
type Result struct {
	Estimate  float64        // KindEstimate
	Estimates []float64      // KindEstimateAll
	TopK      []engine.Entry // KindTopK
}

// Query runs one read against the cluster, routing each partition's portion
// to a replica that owns it and failing over through replica sets; ctx
// bounds every HTTP request the query issues.
func (c *Client) Query(ctx context.Context, opts QueryOptions) (Result, error) {
	switch opts.Transport {
	case "", TransportHTTP, TransportAuto:
	default:
		return Result{}, fmt.Errorf("client: query transport %q unsupported (reads travel HTTP)", opts.Transport)
	}
	switch opts.Kind {
	case KindEstimate:
		est, err := c.estimate(ctx, opts.Key, opts.Window)
		return Result{Estimate: est}, err
	case KindEstimateAll:
		ests, err := c.estimateAll(ctx, opts.Window)
		return Result{Estimates: ests}, err
	case KindTopK:
		top, err := c.topK(ctx, opts.K, opts.Window)
		return Result{TopK: top}, err
	case KindDistinct:
		est, err := c.scalarSum(ctx, "distinct", opts.Window)
		return Result{Estimate: est}, err
	case KindF2:
		est, err := c.scalarSum(ctx, "f2", opts.Window)
		return Result{Estimate: est}, err
	default:
		return Result{}, fmt.Errorf("client: unknown query kind %q", opts.Kind)
	}
}

// StatusError is a node's non-200 answer with the status preserved, so
// routing logic can tell "not the right node" (421, a partition mid-
// rebalance) from a real fault.
type StatusError struct {
	URL  string
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("%s: status %d: %s", e.URL, e.Code, e.Msg)
}

// getJSON fetches url into out, enforcing ctx and a body cap.
func (c *Client) getJSON(ctx context.Context, url string, limit int64, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusMisdirectedRequest {
			c.stats.MisdirectedRetries++
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &StatusError{URL: url, Code: resp.StatusCode, Msg: string(bytes.TrimSpace(msg))}
	}
	return json.NewDecoder(io.LimitReader(resp.Body, limit)).Decode(out)
}

func (c *Client) estimate(ctx context.Context, k int, window string) (float64, error) {
	if k < 0 || k >= c.info.N {
		return 0, fmt.Errorf("client: key %d out of range [0,%d)", k, c.info.N)
	}
	q := ""
	if window != "" {
		q = "?window=" + url.QueryEscape(window)
	}
	// Two passes through the replica set: if the first pass finds no warm
	// owner (a 421 mid-rebalance, a dead node, a ring that moved under our
	// cache), refresh the ring and re-route once before giving up.
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		for _, rep := range c.replicasFor(k) {
			var out struct {
				Estimate float64 `json:"estimate"`
			}
			if err := c.getJSON(ctx, fmt.Sprintf("%s/v1/estimate/%d%s", rep, k, q), 4096, &out); err != nil {
				lastErr = err
				continue
			}
			return out.Estimate, nil
		}
		if attempt == 0 {
			if err := c.Refresh(); err != nil || k >= c.info.N {
				break
			}
		}
	}
	if lastErr == nil {
		lastErr = errors.New("empty ring")
	}
	return 0, fmt.Errorf("client: estimate key %d: %w", k, lastErr)
}

// estimateAll stitches the full estimate vector: each partition's range
// [lo, hi) comes from that partition's replicas (primary first), so every
// value is read from a node that owns it.
func (c *Client) estimateAll(ctx context.Context, window string) ([]float64, error) {
	q := ""
	if window != "" {
		q = "?window=" + url.QueryEscape(window)
	}
	n0, parts0 := c.info.N, c.info.Partitions
	all := make([]float64, n0)
	// One node answers for every partition it owns; cache its full vector
	// so a 3-node ring costs 3 GETs, not one per partition.
	vectors := make(map[string][]float64)
	fetch := func(rep string) ([]float64, error) {
		if v, ok := vectors[rep]; ok {
			return v, nil
		}
		var out struct {
			Estimates []float64 `json:"estimates"`
		}
		if err := c.getJSON(ctx, rep+"/v1/estimates"+q, 1<<28, &out); err != nil {
			return nil, err
		}
		if len(out.Estimates) != n0 {
			return nil, fmt.Errorf("%s: estimate vector has %d keys, ring says %d", rep, len(out.Estimates), n0)
		}
		vectors[rep] = out.Estimates
		return out.Estimates, nil
	}
	refreshed := false
	for p := 0; p < parts0; p++ {
		lo, hi := snapcodec.PartitionRange(n0, parts0, p)
		var lastErr error
		ok := false
		for pass := 0; pass < 2 && !ok; pass++ {
			for _, rep := range c.reps[p] {
				v, err := fetch(rep)
				if err != nil {
					lastErr = err
					continue
				}
				copy(all[lo:hi], v[lo:hi])
				ok = true
				break
			}
			if ok || refreshed || pass > 0 {
				break
			}
			// Same one-refresh policy as topK: re-route once on a stale
			// ring, but refuse a reshaped cluster — mixed tilings would
			// stitch overlapping ranges.
			if err := c.Refresh(); err != nil {
				break
			}
			refreshed = true
			if c.info.N != n0 || c.info.Partitions != parts0 {
				return nil, fmt.Errorf("client: estimates partition %d: cluster reshaped mid-query (%d keys/%d partitions → %d/%d)",
					p, n0, parts0, c.info.N, c.info.Partitions)
			}
		}
		if !ok {
			if lastErr == nil {
				lastErr = errors.New("empty replica set")
			}
			return nil, fmt.Errorf("client: estimates partition %d: %w", p, lastErr)
		}
	}
	return all, nil
}

func (c *Client) topK(ctx context.Context, k int, window string) ([]engine.Entry, error) {
	// The nodes' own limit, checked before a single request goes out.
	if k <= 0 || k > server.MaxTopK {
		return nil, fmt.Errorf("client: k = %d out of [1, %d]", k, server.MaxTopK)
	}
	var all []engine.Entry
	n0, parts0 := c.info.N, c.info.Partitions
	for p := 0; p < parts0; p++ {
		entries, err := c.partitionTopK(ctx, k, p, window, c.reps[p])
		if err != nil {
			// One refresh: the ring may have moved under us. Entries
			// already gathered assume the (N, Partitions) tiling the query
			// started with — if the refreshed cluster is reshaped, ranges
			// would overlap and keys double-count, so fail instead.
			if rerr := c.Refresh(); rerr == nil {
				if c.info.N != n0 || c.info.Partitions != parts0 {
					return nil, fmt.Errorf("client: topk partition %d: cluster reshaped mid-query (%d keys/%d partitions → %d/%d)",
						p, n0, parts0, c.info.N, c.info.Partitions)
				}
				entries, err = c.partitionTopK(ctx, k, p, window, c.reps[p])
			}
			if err != nil {
				return nil, fmt.Errorf("client: topk partition %d: %w", p, err)
			}
		}
		all = append(all, entries...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Estimate != all[j].Estimate {
			return all[i].Estimate > all[j].Estimate
		}
		return all[i].Key < all[j].Key
	})
	if len(all) > k {
		all = all[:k]
	}
	return all, nil
}

// scalarSum computes a cluster-wide scalar (distinct cardinality, F2
// moment) by summing per-partition answers: partitions tile disjoint key
// ranges, so per-partition scalars are additive, and each comes from a
// replica that owns the range. Same one-refresh reshape guard as topK —
// a mid-query retiling would sum overlapping ranges.
func (c *Client) scalarSum(ctx context.Context, path, window string) (float64, error) {
	var total float64
	n0, parts0 := c.info.N, c.info.Partitions
	for p := 0; p < parts0; p++ {
		v, err := c.partitionScalar(ctx, path, p, window, c.reps[p])
		if err != nil {
			if rerr := c.Refresh(); rerr == nil {
				if c.info.N != n0 || c.info.Partitions != parts0 {
					return 0, fmt.Errorf("client: %s partition %d: cluster reshaped mid-query (%d keys/%d partitions → %d/%d)",
						path, p, n0, parts0, c.info.N, c.info.Partitions)
				}
				v, err = c.partitionScalar(ctx, path, p, window, c.reps[p])
			}
			if err != nil {
				return 0, fmt.Errorf("client: %s partition %d: %w", path, p, err)
			}
		}
		total += v
	}
	return total, nil
}

// partitionScalar asks p's replicas (primary first) for the partition's
// scalar estimate, optionally window-scoped.
func (c *Client) partitionScalar(ctx context.Context, path string, p int, window string, reps []string) (float64, error) {
	q := ""
	if window != "" {
		q = "&window=" + url.QueryEscape(window)
	}
	var lastErr error
	for _, rep := range reps {
		var out struct {
			Estimate float64 `json:"estimate"`
		}
		if err := c.getJSON(ctx, fmt.Sprintf("%s/v1/%s?partition=%d%s", rep, path, p, q), 4096, &out); err != nil {
			lastErr = err
			continue
		}
		return out.Estimate, nil
	}
	if lastErr == nil {
		lastErr = errors.New("empty replica set")
	}
	return 0, lastErr
}

// partitionTopK asks p's replicas (primary first) for the partition's top
// k entries, optionally window-scoped.
func (c *Client) partitionTopK(ctx context.Context, k, p int, window string, reps []string) ([]engine.Entry, error) {
	q := ""
	if window != "" {
		q = "&window=" + url.QueryEscape(window)
	}
	var lastErr error
	for _, rep := range reps {
		var out struct {
			TopK []engine.Entry `json:"topk"`
		}
		if err := c.getJSON(ctx, fmt.Sprintf("%s/v1/topk?k=%d&partition=%d%s", rep, k, p, q), 1<<22, &out); err != nil {
			lastErr = err
			continue
		}
		return out.TopK, nil
	}
	if lastErr == nil {
		lastErr = errors.New("empty replica set")
	}
	return nil, lastErr
}
