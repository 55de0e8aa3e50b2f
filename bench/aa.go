package main

import (
	"fmt"
	"math"
)

// runAA measures the same code twice and holds the second set against the
// first with the benchmark's own bounds (the e2eMetrics table): the
// repeatability check, and the procedure by which a bound is confirmed or a
// metric demoted.
func runAA(e *env, o *options) int {
	a, codeA := runSet(e, o)
	b, codeB := runSet(e, o)
	if codeA == 2 || codeB == 2 {
		return 2
	}
	fmt.Printf("\n== A/A: two sets of the same code, second against first\n")
	fmt.Printf("%-22s %-26s %14s %14s %8s %6s\n", "workload", "metric", "A", "B", "worse", "bound")
	code := max(codeA, codeB)
	for i := range a {
		noisy := a[i].Noisy || b[i].Noisy
		for _, m := range e2eMetrics {
			va, vb := a[i].Metrics[m.Name].Value, b[i].Metrics[m.Name].Value
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = (va - vb) / va
			}
			verdict := "PASS"
			if failed := math.IsNaN(worse) || worse > m.Bound; failed && noisy {
				verdict = "NOISY" // a flagged phase decides nothing
			} else if failed {
				verdict, code = "FAIL", max(code, 1)
			}
			fmt.Printf("%-22s %-26s %14.4f %14.4f %+7.1f%% %5.0f%% %s\n",
				a[i].Workload, m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
	}
	writeResults(e, append(a, b...))
	printLastLine(b, len(b) == 1)
	return code
}
