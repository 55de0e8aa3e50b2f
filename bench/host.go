package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// pinnedEnv marks a harness process that already runs on its one CPU; its
// value is how many CPUs the machine gave it before, for the machine tag.
const pinnedEnv = "COUNTERD_BENCH_PINNED"

// pinToOneCPU binds the harness, and with it every counterd it starts, to
// the lowest CPU it is allowed to use, by setting the affinity of this thread
// and executing itself again: affinity is inherited, and a Go runtime only
// reads it when it starts. The box gives the benchmark two vCPUs of a shared
// host. Spread over both, a request is two cross-CPU wake-ups of a halted
// vCPU, and what a run measured was where the host had put the vCPUs that
// minute: closed-loop throughput differed by 30 % between runs of one commit
// and by 2× between the quarter-second slices of one run. On one CPU the
// client and the server hand the processor to each other, nothing halts, and
// the same runs agree within 3 %. The price is stated in README.md: nothing
// end to end runs in parallel, and the generator's cost is in every number.
func pinToOneCPU() error {
	if os.Getenv(pinnedEnv) != "" {
		return nil
	}
	runtime.LockOSThread()
	var mask [16]uint64 // 1024 CPUs
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("bench: sched_getaffinity: %v", errno)
	}
	one := [16]uint64{}
	for i, w := range mask {
		if w != 0 {
			one[i] = w & -w // lowest set bit
			break
		}
	}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); errno != 0 {
		return fmt.Errorf("bench: sched_setaffinity: %v", errno)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(exe, os.Args, append(os.Environ(), pinnedEnv+"="+strconv.Itoa(runtime.NumCPU())))
}

// maxStealPct is the hypervisor-steal share above which a slice measured
// the neighbours rather than the program. Numbers are never rescaled by
// steal: a noisy slice is left out or flagged, nothing else.
const maxStealPct = 5.0

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct{ steal, total uint64 }

func parseCPULine(line string) (cpuTimes, bool) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, false
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user, so the first eight fields are the whole.
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTimes{}, false
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

// readCPUTimes returns the zero value where /proc/stat is unreadable, which
// makes every steal share read 0: the guard is then off, not wrong.
func readCPUTimes() cpuTimes {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if sc.Scan() {
		t, _ := parseCPULine(sc.Text())
		return t
	}
	return cpuTimes{}
}

func stealPct(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// awaitQuietHost holds a run back while the hypervisor is taking more than
// maxStealPct of the CPU, for at most what is left of *budget. Steal only
// accrues to a vCPU that wants to run, so each 100 ms probe keeps every core
// busy. Steal comes in spells of seconds to minutes here; a phase started
// inside one measures the spell.
func awaitQuietHost(budget *time.Duration) {
	const window = 100 * time.Millisecond
	for *budget >= window {
		before := readCPUTimes()
		var wg sync.WaitGroup
		for i := 0; i < runtime.NumCPU(); i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				spinMops(window)
			}()
		}
		wg.Wait()
		if stealPct(before, readCPUTimes()) <= maxStealPct {
			return
		}
		*budget -= window
	}
}

var spinSink atomic.Uint64

// spinMops runs a single-thread integer loop for d and returns million
// iterations per second. It is a thermometer for the host, printed beside
// the results; a 3× swing between the before and after reading says the
// run's numbers are the hypervisor's.
func spinMops(d time.Duration) float64 {
	x, n := uint64(88172645463325252), uint64(0)
	start := time.Now()
	for time.Since(start) < d {
		for i := 0; i < 4096; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		n += 4096
	}
	spinSink.Add(x) // keeps the loop from being optimised away
	return float64(n) / time.Since(start).Seconds() / 1e6
}

// machineTag identifies the box a result came from.
type machineTag struct {
	CPU    string `json:"cpu"`
	NProc  int    `json:"nproc"`
	Kernel string `json:"kernel"`
	Go     string `json:"go"`
	DataFS string `json:"data_fs"`
}

func readMachineTag(dataDir string) machineTag {
	tag := machineTag{NProc: runtime.NumCPU(), Go: runtime.Version(), DataFS: fsName(dataDir)}
	if n, err := strconv.Atoi(os.Getenv(pinnedEnv)); err == nil {
		tag.NProc = n
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				tag.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		tag.Kernel = strings.TrimSpace(string(b))
	}
	return tag
}

// fsName names the filesystem under dir, because what an fsync costs is a
// property of it and the durable workload's numbers mean nothing without it.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("fs-%#x", uint32(st.Type))
}
