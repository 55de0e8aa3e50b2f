package server

import (
	"os"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// memGauges registers counterd_mem_bytes{part}: where the process's memory
// goes, in the parts docs/OPERATIONS.md's memory budget is written in.
//
//   - rss, rss_peak: resident set and its high-water mark (VmRSS, VmHWM of
//     /proc/self/status), omitted where that file does not exist;
//   - rss_file: the part of rss backed by files (RssFile) — the mapped
//     binary and its libraries, most of an idle node;
//   - heap_live, heap_goal: the Go heap the last GC kept, and the size at
//     which the next one starts;
//   - registers: the engine's register state;
//   - mapped: the registers held in a mapping outside the Go heap, which
//     neither heap part counts (shardbank maps a bank of 4 MiB or more);
//   - cut_copies: words writers saved for open copy-on-write views
//     (shardbank's cuts); 0 whenever no snapshot is being read.
func (st *Store) memGauges(reg *metrics.Registry) {
	part := func(p string, fn func() float64) {
		reg.GaugeFuncVec("counterd_mem_bytes",
			"Process memory by part: rss, rss_peak and rss_file (Linux), heap_live and heap_goal (Go heap), registers (engine state), mapped (registers outside the Go heap), cut_copies (words saved for snapshots being read).",
			[]string{"part"}, []string{p}, fn)
	}
	if _, ok := procStatusBytes("VmRSS"); ok {
		part("rss", func() float64 { v, _ := procStatusBytes("VmRSS"); return v })
		part("rss_peak", func() float64 { v, _ := procStatusBytes("VmHWM"); return v })
		part("rss_file", func() float64 { v, _ := procStatusBytes("RssFile"); return v })
	}
	part("heap_live", runtimeBytes("/gc/heap/live:bytes"))
	part("heap_goal", runtimeBytes("/gc/heap/goal:bytes"))
	part("registers", func() float64 { return float64(st.eng.SizeBytes()) })
	part("mapped", func() float64 {
		if b := st.Bank(); b != nil {
			return float64(b.MappedBytes())
		}
		return 0
	})
	part("cut_copies", func() float64 {
		if b := st.Bank(); b != nil {
			return float64(b.CutCopyBytes())
		}
		return 0
	})
}

// procStatusBytes reads one "Key:   N kB" line of /proc/self/status.
func procStatusBytes(key string) (float64, bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			kb, err := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 10, 64)
			return float64(kb) * 1024, err == nil
		}
	}
	return 0, false
}

// runtimeBytes returns a gauge function reading one runtime/metrics byte
// count.
func runtimeBytes(name string) func() float64 {
	return func() float64 {
		s := []rtmetrics.Sample{{Name: name}}
		rtmetrics.Read(s)
		if s[0].Value.Kind() != rtmetrics.KindUint64 {
			return 0
		}
		return float64(s[0].Value.Uint64())
	}
}
