package main

import (
	"strconv"
	"strings"
)

// parseExposition reads Prometheus text exposition into series → value,
// keyed by the series as written (name plus its label set). Comment lines,
// blank lines and lines that do not end in a number are skipped.
func parseExposition(text string) map[string]float64 {
	series := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space outside the label braces; a
		// label value may itself hold spaces.
		cut := strings.LastIndexByte(line, ' ')
		if brace := strings.LastIndexByte(line, '}'); cut < brace {
			continue
		}
		if cut < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			continue
		}
		series[strings.TrimSpace(line[:cut])] = v
	}
	return series
}

// sumSeries adds up every series of one metric name, whatever its labels.
func sumSeries(series map[string]float64, name string) float64 {
	total := 0.0
	for s, v := range series {
		if s == name || strings.HasPrefix(s, name+"{") {
			total += v
		}
	}
	return total
}
