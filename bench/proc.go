package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// repoRoot walks up from the working directory to the checkout that holds
// both the benchmark description and the daemon it measures.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if fileExists(filepath.Join(dir, "BENCHMARK.json")) && fileExists(filepath.Join(dir, "cmd", "counterd", "main.go")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no checkout with BENCHMARK.json and cmd/counterd above the working directory")
		}
		dir = parent
	}
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

// buildCounterd compiles the daemon from the checkout's source into the
// ignored build directory. go build is incremental, so every run after the
// first pays a stat walk, and set-up time never includes it.
func buildCounterd(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "counterd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/counterd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: building counterd: %v\n%s", err, out)
	}
	return bin, nil
}

// children is every live counterd, so an exit on any path — a failed gate,
// a signal, the workload deadline — leaves no process behind.
var children struct {
	sync.Mutex
	live map[*node]struct{}
}

func killAllChildren() {
	children.Lock()
	nodes := make([]*node, 0, len(children.live))
	for n := range children.live {
		nodes = append(nodes, n)
	}
	children.Unlock()
	for _, n := range nodes {
		n.kill()
	}
}

// node is one counterd process and what it has cost so far. A node outlives
// its process: restart runs a new one on the same directory and ports, and
// the CPU time of the dead ones stays in the total.
type node struct {
	bin      string
	args     []string
	dir      string
	httpAddr string
	wireAddr string
	logPath  string

	cmd     *exec.Cmd
	execAt  time.Time
	pastCPU time.Duration // user+system time of processes already reaped
	peakRSS float64       // largest VmHWM seen at a kill, MB
}

func (n *node) base() string { return "http://" + n.httpAddr }

// freeAddrs reserves count loopback ports by binding :0 and releasing
// them; counterd binds them a moment later.
func freeAddrs(count int) ([]string, error) {
	addrs := make([]string, count)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return addrs, nil
}

// start runs the daemon in its own process group with stderr appended to
// the node's log under bench-out/, which survives the run for post-mortems.
func (n *node) start() error {
	logf, err := os.OpenFile(n.logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	args := append([]string{"-addr", n.httpAddr, "-dir", n.dir}, n.args...)
	if n.wireAddr != "" {
		args = append(args, "-listen-wire", n.wireAddr)
	}
	cmd := exec.Command(n.bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	n.execAt = time.Now()
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("bench: exec counterd: %w", err)
	}
	n.cmd = cmd
	children.Lock()
	if children.live == nil {
		children.live = make(map[*node]struct{})
	}
	children.live[n] = struct{}{}
	children.Unlock()
	return nil
}

// kill is kill -9 on the whole process group, then a wait: the crash the
// recovery metric starts from, and the only way this harness stops a node.
func (n *node) kill() {
	if !n.live() {
		return
	}
	n.rssPeakMB() // remember the high-water mark before /proc forgets it
	children.Lock()
	delete(children.live, n)
	children.Unlock()
	_ = syscall.Kill(-n.cmd.Process.Pid, syscall.SIGKILL) // already gone is fine
	_ = n.cmd.Wait()                                      // "signal: killed" is the expected result
	if ps := n.cmd.ProcessState; ps != nil {
		n.pastCPU += ps.UserTime() + ps.SystemTime()
	}
}

// waitReady polls /v1/readyz every millisecond until it answers 200, and fails at
// once if the process died instead.
func (n *node) waitReady(hc *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := hc.Get(n.base() + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if syscall.Kill(n.cmd.Process.Pid, 0) != nil {
			return fmt.Errorf("bench: counterd exited before ready (see %s)", n.logPath)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: %s not ready after %v (see %s)", n.base(), timeout, n.logPath)
		}
		time.Sleep(time.Millisecond)
	}
}

// clockTick is USER_HZ, which Linux fixes at 100 for every architecture Go
// runs on; /proc/<pid>/stat counts CPU time in it.
const clockTick = 100

// cpuTime is the user+system time of every process this node has run; the
// share of the ones already reaped is in pastCPU.
func (n *node) cpuTime() time.Duration {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", n.cmd.Process.Pid))
	if err != nil || !n.live() {
		return n.pastCPU
	}
	live, _ := parseStatCPU(string(b)) // a malformed line reads as zero live time
	return n.pastCPU + live
}

func (n *node) live() bool {
	children.Lock()
	defer children.Unlock()
	_, ok := children.live[n]
	return ok
}

func parseStatCPU(stat string) (time.Duration, error) {
	// The command name may hold spaces; fields are counted after its ")".
	i := strings.LastIndexByte(stat, ')')
	f := strings.Fields(stat[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, errors.New("bench: malformed /proc stat line")
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bench: malformed /proc stat times")
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// rssPeakMB is the largest VmHWM (resident-set high-water mark) of any
// process this node has run.
func (n *node) rssPeakMB() float64 {
	if b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid)); err == nil && n.live() {
		if mb, err := parseVmHWM(string(b)); err == nil && mb > n.peakRSS {
			n.peakRSS = mb
		}
	}
	return n.peakRSS
}

func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("bench: no VmHWM in /proc status")
}
