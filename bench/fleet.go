package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// env is where one invocation of the benchmark keeps its files: data
// directories under the ignored build directory (removed afterwards), logs
// and traces under the ignored bench-out/ (kept).
type env struct {
	counterd string
	dataRoot string
	outDir   string
	workers  int
	hc       *http.Client
}

// fleet is the counterd processes of one workload instance.
type fleet struct {
	sp     spec
	nodes  []*node
	dir    string
	execAt time.Time // the first exec, where set-up time starts
	hc     *http.Client
}

// bootTimeout covers exec, WAL replay and ring convergence; a healthy boot
// takes a few seconds at most.
const bootTimeout = 60 * time.Second

// settleTimeout is how long a fresh ring may take to agree on itself, and
// bootAttempts how often one is started. About one simultaneous start of
// three members in two hundred never installs a partition (every node logs
// "64 partitions to install" and waits for the others); a ring that settles
// does so within three seconds. A stuck one is torn down and started again,
// and the run reports it as boot_retries.
const (
	settleTimeout = 15 * time.Second
	bootAttempts  = 3
)

// boot starts the workload's processes on fresh directories and returns
// once every node answers /v1/readyz and, for a ring, once every member
// agrees on the ring and has installed its partitions.
func boot(e *env, sp spec, instance int) (c *fleet, retries int, err error) {
	for ; retries < bootAttempts; retries++ {
		if c, err = bootOnce(e, sp, instance); err == nil {
			return c, retries, nil
		}
	}
	return nil, retries, err
}

func bootOnce(e *env, sp spec, instance int) (*fleet, error) {
	c := &fleet{sp: sp, hc: e.hc, dir: filepath.Join(e.dataRoot, fmt.Sprintf("%s-%d", sp.name, instance))}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return nil, err
	}
	addrs, err := freeAddrs(2 * sp.nodes)
	if err != nil {
		return nil, err
	}
	for i := 0; i < sp.nodes; i++ {
		n := &node{
			bin:      e.counterd,
			args:     append([]string(nil), sp.flags...),
			dir:      filepath.Join(c.dir, fmt.Sprintf("node%d", i)),
			httpAddr: addrs[2*i],
			logPath:  filepath.Join(e.outDir, fmt.Sprintf("%s-node%d.stderr.log", sp.name, i)),
		}
		if sp.wire {
			n.wireAddr = addrs[2*i+1]
		}
		if i > 0 {
			n.args = append(n.args, "-join", c.nodes[0].base())
		}
		c.nodes = append(c.nodes, n)
	}
	for i, n := range c.nodes {
		if err := n.start(); err != nil {
			c.destroy()
			return nil, err
		}
		if i == 0 {
			c.execAt = n.execAt
		}
	}
	if err := c.waitServing(settleTimeout); err != nil {
		c.destroy()
		return nil, err
	}
	return c, nil
}

func (c *fleet) waitServing(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, n := range c.nodes {
		if err := n.waitReady(c.hc, time.Until(deadline)); err != nil {
			return err
		}
	}
	if len(c.nodes) == 1 {
		return nil
	}
	for !c.ringSettled() {
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: %s: ring did not settle in %v", c.sp.name, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// ringSettled reports whether every node sees every member alive on one
// ring version with nothing left to install or surrender.
func (c *fleet) ringSettled() bool {
	version := ""
	for i, n := range c.nodes {
		var info struct {
			Members []struct {
				State string `json:"state"`
			} `json:"members"`
		}
		var reb struct {
			RingVersion string `json:"ringVersion"`
			Reconciled  bool   `json:"reconciled"`
			Pending     []int  `json:"pending"`
			Frozen      []int  `json:"frozen"`
		}
		if getJSON(c.hc, n.base()+"/v1/cluster/info", &info) != nil ||
			getJSON(c.hc, n.base()+"/v1/cluster/rebalance", &reb) != nil {
			return false
		}
		alive := 0
		for _, m := range info.Members {
			if m.State == "alive" {
				alive++
			}
		}
		if alive != len(c.nodes) || !reb.Reconciled || len(reb.Pending)+len(reb.Frozen) > 0 {
			return false
		}
		if i == 0 {
			version = reb.RingVersion
		} else if reb.RingVersion != version {
			return false
		}
	}
	return true
}

// converged waits until every replica serves a byte-identical
// /v1/snapshot and returns that snapshot. A single node is its own replica
// set, so it returns at once with the one snapshot.
func (c *fleet) converged(timeout time.Duration) ([]byte, error) {
	deadline := time.Now().Add(timeout)
	for {
		snaps := make([][]byte, len(c.nodes))
		errs := make([]error, len(c.nodes))
		var wg sync.WaitGroup
		for i, n := range c.nodes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				snaps[i], errs[i] = getBytes(c.hc, n.base()+"/v1/snapshot")
			}()
		}
		wg.Wait()
		same := true
		for i := range snaps {
			if errs[i] != nil {
				return nil, errs[i]
			}
			same = same && bytes.Equal(snaps[i], snaps[0])
		}
		if same {
			return snaps[0], nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("bench: %s: replicas not byte-identical after %v", c.sp.name, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// scrape reads the node's /metrics into series → value.
func (n *node) scrape(hc *http.Client) (map[string]float64, error) {
	text, err := getBytes(hc, n.base()+"/metrics")
	return parseExposition(string(text)), err
}

// appliedKeys is the metric every replication check here rests on: how many
// keys the node's store has applied, live and replayed.
const appliedKeys = "counterd_store_apply_keys_total"

// applied waits until every node's own count of applied keys has reached
// events — every replica holds every acknowledged event — and returns how
// long that took. One node applied them before it acknowledged them.
func (c *fleet) applied(events int64, timeout time.Duration) (time.Duration, error) {
	if len(c.nodes) == 1 {
		return 0, nil
	}
	start := time.Now()
	for i := 0; i < len(c.nodes); {
		series, err := c.nodes[i].scrape(c.hc)
		if err != nil {
			return 0, err
		}
		if sumSeries(series, appliedKeys) >= float64(events) {
			i++
			continue
		}
		if time.Since(start) > timeout {
			return 0, fmt.Errorf("bench: %s: node %d has not applied %d events after %v", c.sp.name, i, events, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return time.Since(start), nil
}

// recoverProbe crashes node i with kill -9, restarts it on the same
// directory and ports, and returns the time from that exec to readiness.
func (c *fleet) recoverProbe(i int) (time.Duration, error) {
	n := c.nodes[i]
	n.kill()
	if err := n.start(); err != nil {
		return 0, err
	}
	if err := n.waitReady(c.hc, bootTimeout); err != nil {
		return 0, err
	}
	return time.Since(n.execAt), nil
}

// destroy kills every node and removes the data directories; the stderr
// logs under bench-out/ stay.
func (c *fleet) destroy() {
	for _, n := range c.nodes {
		n.kill()
	}
	os.RemoveAll(c.dir)
}

func (c *fleet) cpuSeconds() float64 {
	var total time.Duration
	for _, n := range c.nodes {
		total += n.cpuTime()
	}
	return total.Seconds()
}

func (c *fleet) peakRSSMB() float64 {
	var total float64
	for _, n := range c.nodes {
		total += n.rssPeakMB()
	}
	return total
}

func getBytes(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(b[:min(len(b), 200)]))
	}
	return b, nil
}

func getJSON(hc *http.Client, url string, into any) error {
	b, err := getBytes(hc, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, into)
}
