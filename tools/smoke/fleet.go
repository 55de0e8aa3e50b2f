package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// The keyspace and partition count of the grow and distinct rings; load
// draws its keys below keys.
const (
	keys       = 20000
	partitions = 16
)

// A fleet is one scenario's counterd processes, each a node with its own
// loopback address, data directory and log file under the scenario's work
// directory.
type fleet struct {
	counterd string
	work     string
	args     []string // the counterd flags every node of the scenario shares
	nodes    []*node
	hc       *http.Client
}

type node struct {
	idx  int
	addr string // host:port, kept across a restart
	base string // http://host:port
	dir  string
	log  *os.File
	cmd  *exec.Cmd
	exit chan error // the process's Wait result; nil once it has been received
}

func newFleet(counterd, work string) (*fleet, error) {
	if err := os.Mkdir(work, 0o755); err != nil {
		return nil, err
	}
	return &fleet{counterd: counterd, work: work, hc: &http.Client{Timeout: 5 * time.Second}}, nil
}

// close kills every node still running and closes the logs.
func (f *fleet) close() {
	for _, n := range f.nodes {
		if n.exit != nil {
			n.kill()
		}
		n.log.Close()
	}
}

// start launches node len(f.nodes) on a fresh loopback address.
func (f *fleet) start() (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	i := len(f.nodes)
	logf, err := os.Create(filepath.Join(f.work, fmt.Sprintf("node%d.log", i)))
	if err != nil {
		return nil, err
	}
	n := &node{idx: i, addr: addr, base: "http://" + addr, dir: filepath.Join(f.work, fmt.Sprintf("node%d", i)), log: logf}
	f.nodes = append(f.nodes, n)
	return n, f.launch(n)
}

// boot starts a ring of size nodes and waits until each sees all alive.
func (f *fleet) boot(size int) error {
	for i := 0; i < size; i++ {
		if _, err := f.start(); err != nil {
			return err
		}
	}
	return f.awaitMembers(f.nodes, size)
}

// launch runs counterd for n on n's address and directory, which is a
// restart after n was killed, and waits until it serves /v1/healthz. Every
// node but node 0 joins the ring through node 0.
func (f *fleet) launch(n *node) error {
	args := append([]string{"-addr", n.addr, "-dir", n.dir}, f.args...)
	if n.idx > 0 {
		args = append(args, "-join", f.nodes[0].base)
	}
	cmd := exec.Command(f.counterd, args...)
	cmd.Stdout = n.log
	cmd.Stderr = n.log
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start node %d: %w", n.idx, err)
	}
	exit := make(chan error, 1)
	n.cmd, n.exit = cmd, exit
	go func() { exit <- cmd.Wait() }()
	err := poll(15*time.Second, 100*time.Millisecond, func() error {
		_, _, err := f.fetch(n.base + "/v1/healthz")
		return err
	})
	if err != nil {
		return fmt.Errorf("node %d never became healthy: %w", n.idx, err)
	}
	log.Printf("node %d serving at %s", n.idx, n.base)
	return nil
}

// kill sends SIGKILL to n and waits for it to exit.
func (n *node) kill() error {
	if err := n.cmd.Process.Kill(); err != nil {
		return fmt.Errorf("kill node %d: %w", n.idx, err)
	}
	<-n.exit
	n.exit = nil
	return nil
}

// term sends SIGTERM to n and waits up to within for a clean exit.
func (n *node) term(within time.Duration) error {
	if err := n.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal node %d: %w", n.idx, err)
	}
	select {
	case err := <-n.exit:
		n.exit = nil
		if err != nil {
			return fmt.Errorf("node %d exited: %w", n.idx, err)
		}
		return nil
	case <-time.After(within):
		return fmt.Errorf("node %d never exited after SIGTERM", n.idx)
	}
}

// poll calls check every interval until it returns nil, and returns its
// last error once within has passed.
func poll(within, every time.Duration, check func() error) error {
	deadline := time.Now().Add(within)
	for {
		err := check()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(every)
	}
}

// fetch GETs url and returns the body of a 200 answer with its header.
func (f *fleet) fetch(url string) ([]byte, http.Header, error) {
	resp, err := f.hc.Get(url)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<28))
	if err != nil {
		return nil, nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body[:min(len(body), 256)]))
	}
	return body, resp.Header, nil
}

func (f *fleet) getJSON(url string, out any) error {
	body, _, err := f.fetch(url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

// inc posts one batch of keys to n's /v1/inc.
func (f *fleet) inc(n *node, keys []int) error {
	body, _ := json.Marshal(map[string][]int{"keys": keys})
	resp, err := f.hc.Post(n.base+"/v1/inc", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("inc: status %d", resp.StatusCode)
	}
	return nil
}

type clusterInfo struct {
	Members []struct {
		State string `json:"state"`
	}
	OwnedParts []int `json:"ownedPartitions"`
}

// awaitMembers waits until every node's member table shows want alive rows.
func (f *fleet) awaitMembers(nodes []*node, want int) error {
	err := poll(30*time.Second, 100*time.Millisecond, func() error {
		for _, n := range nodes {
			var info clusterInfo
			if err := f.getJSON(n.base+"/v1/cluster/info", &info); err != nil {
				return err
			}
			alive := 0
			for _, m := range info.Members {
				if m.State == "alive" {
					alive++
				}
			}
			if alive != want {
				return fmt.Errorf("node %d sees %d alive", n.idx, alive)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("membership never converged to %d alive nodes: %w", want, err)
	}
	return nil
}

type rebStatus struct {
	RingVersion   string `json:"ringVersion"`
	Reconciled    bool   `json:"reconciled"`
	Pending       []int  `json:"pending"`
	Frozen        []int  `json:"frozen"`
	Moved         uint64 `json:"partitionsMoved"`
	BytesStreamed uint64 `json:"bytesStreamed"`
}

// awaitRebalanced waits until every node reports the same ring version,
// reconciled, with nothing pending and nothing frozen, and returns the
// nodes' summed partition installs and bytes streamed.
func (f *fleet) awaitRebalanced(nodes []*node) (moved, streamed uint64, err error) {
	err = poll(60*time.Second, 200*time.Millisecond, func() error {
		moved, streamed = 0, 0
		var ver string
		for i, n := range nodes {
			var st rebStatus
			if err := f.getJSON(n.base+"/v1/cluster/rebalance", &st); err != nil {
				return err
			}
			if !st.Reconciled || len(st.Pending) > 0 || len(st.Frozen) > 0 {
				return fmt.Errorf("node %d: %+v", n.idx, st)
			}
			if i == 0 {
				ver = st.RingVersion
			} else if st.RingVersion != ver {
				return fmt.Errorf("node %d at ring %s, node %d at %s", n.idx, st.RingVersion, nodes[0].idx, ver)
			}
			moved += st.Moved
			streamed += st.BytesStreamed
		}
		return nil
	})
	if err != nil {
		return 0, 0, fmt.Errorf("rebalance never settled across %d nodes: %w", len(nodes), err)
	}
	return moved, streamed, nil
}

// load posts events Zipf(1.2) keys in batches of 256, round-robin across
// nodes and failing over on errors, and hands each acked batch to ack.
func (f *fleet) load(nodes []*node, events int, seed int64, ack func(batch []int)) error {
	zipf := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.2, 1, uint64(keys-1))
	batch := make([]int, 0, 256)
	for i, sent := 0, 0; sent < events; i++ {
		batch = batch[:0]
		for len(batch) < cap(batch) && sent+len(batch) < events {
			batch = append(batch, int(zipf.Uint64()))
		}
		err := f.inc(nodes[i%len(nodes)], batch)
		for try := 1; try < len(nodes) && err != nil; try++ {
			err = f.inc(nodes[(i+try)%len(nodes)], batch)
		}
		if err != nil {
			return fmt.Errorf("no node accepted a batch: %w", err)
		}
		ack(batch)
		sent += len(batch)
	}
	return nil
}

// identical checks that every node answers path with the same bytes.
func (f *fleet) identical(nodes []*node, path string) error {
	var want []byte
	for i, n := range nodes {
		blob, _, err := f.fetch(n.base + path)
		if err != nil {
			return fmt.Errorf("node %d: %w", n.idx, err)
		}
		if i == 0 {
			want = blob
		} else if !bytes.Equal(want, blob) {
			return fmt.Errorf("node %d's %s differs from node %d's", n.idx, path, nodes[0].idx)
		}
	}
	return nil
}

// ownersAgree checks that the owners of each partition p, owners[p], serve
// byte-identical /v1/snapshot/{p}.
func (f *fleet) ownersAgree(owners [][]*node) error {
	for p, ns := range owners {
		if err := f.identical(ns, fmt.Sprintf("/v1/snapshot/%d", p)); err != nil {
			return fmt.Errorf("partition %d: %w", p, err)
		}
	}
	return nil
}
