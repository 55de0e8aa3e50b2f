package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// LintExposition parses Prometheus text exposition format and returns an
// error describing the first violation found. It checks:
//
//   - every sample line is NAME{labels} VALUE with a parseable value and
//     well-formed, properly escaped labels;
//   - every sample is preceded by # HELP and # TYPE lines for its family
//     (histogram _bucket/_sum/_count samples resolve to the base name);
//   - sample types match the declared TYPE (counters non-negative);
//   - histogram buckets per series are cumulative (non-decreasing in le
//     order), end with le="+Inf", and _count equals the +Inf bucket.
//
// It is used by the package tests, the server scrape-roundtrip test, and
// tools/smoke (scenario metrics), so the checks run against real HTTP
// responses.
func LintExposition(r io.Reader) error {
	decls := make(map[string]familyDecl)
	type histSeries struct {
		buckets []struct {
			le  float64
			cum uint64
		}
		count    uint64
		hasCount bool
		hasSum   bool
	}
	hists := make(map[string]*histSeries) // key: base name + sorted non-le labels

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	ln := 0
	for sc.Scan() {
		ln++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return fmt.Errorf("line %d: malformed comment %q", ln, line)
			}
			d := decls[fields[2]]
			if fields[1] == "HELP" {
				d.help = "set"
				if len(fields) == 4 {
					d.help = fields[3]
				}
			} else {
				if len(fields) != 4 {
					return fmt.Errorf("line %d: TYPE without a type", ln)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown type %q", ln, fields[3])
				}
				d.typ = fields[3]
			}
			decls[fields[2]] = d
			continue
		}

		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", ln, err)
		}
		base, suffix := baseName(name, decls)
		d, ok := decls[base]
		if !ok || d.typ == "" {
			return fmt.Errorf("line %d: sample %s without preceding # TYPE %s", ln, name, base)
		}
		if d.help == "" {
			return fmt.Errorf("line %d: sample %s without preceding # HELP %s", ln, name, base)
		}
		if d.typ == "counter" && value < 0 {
			return fmt.Errorf("line %d: counter %s has negative value %v", ln, name, value)
		}
		if d.typ != "histogram" {
			if suffix != "" {
				return fmt.Errorf("line %d: %s sample on non-histogram family %s", ln, name, base)
			}
			continue
		}

		// Histogram bookkeeping, keyed by the series' non-le labels.
		var le string
		rest := make([]string, 0, len(labels))
		for _, kv := range labels {
			if kv[0] == "le" {
				le = kv[1]
			} else {
				rest = append(rest, kv[0]+"="+kv[1])
			}
		}
		sort.Strings(rest)
		key := base + "|" + strings.Join(rest, ",")
		h := hists[key]
		if h == nil {
			h = &histSeries{}
			hists[key] = h
		}
		switch suffix {
		case "_bucket":
			if le == "" {
				return fmt.Errorf("line %d: %s_bucket without le label", ln, base)
			}
			ub := math.Inf(+1)
			if le != "+Inf" {
				if ub, err = strconv.ParseFloat(le, 64); err != nil {
					return fmt.Errorf("line %d: bad le %q: %v", ln, le, err)
				}
			}
			h.buckets = append(h.buckets, struct {
				le  float64
				cum uint64
			}{ub, uint64(value)})
		case "_count":
			h.count = uint64(value)
			h.hasCount = true
		case "_sum":
			h.hasSum = true
		default:
			return fmt.Errorf("line %d: bare sample %s on histogram family", ln, name)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}

	for key, h := range hists {
		if len(h.buckets) == 0 || !h.hasCount || !h.hasSum {
			return fmt.Errorf("histogram %s: missing buckets, _count, or _sum", key)
		}
		for i := 1; i < len(h.buckets); i++ {
			if h.buckets[i].le <= h.buckets[i-1].le {
				return fmt.Errorf("histogram %s: le bounds not ascending", key)
			}
			if h.buckets[i].cum < h.buckets[i-1].cum {
				return fmt.Errorf("histogram %s: bucket counts not cumulative at le=%v", key, h.buckets[i].le)
			}
		}
		last := h.buckets[len(h.buckets)-1]
		if !math.IsInf(last.le, +1) {
			return fmt.Errorf("histogram %s: last bucket is not le=\"+Inf\"", key)
		}
		if last.cum != h.count {
			return fmt.Errorf("histogram %s: +Inf bucket %d != _count %d", key, last.cum, h.count)
		}
	}
	return nil
}

type familyDecl struct {
	help, typ string
}

// baseName strips a histogram suffix when the base family is declared as
// a histogram. Returns the family name and the suffix ("" if none).
func baseName(name string, decls map[string]familyDecl) (string, string) {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if b, ok := strings.CutSuffix(name, suf); ok {
			if d, ok := decls[b]; ok && d.typ == "histogram" {
				return b, suf
			}
		}
	}
	return name, ""
}

// parseSample parses `name{k="v",...} value [timestamp]`.
func parseSample(line string) (name string, labels [][2]string, value float64, err error) {
	i := 0
	for i < len(line) && isNameChar(line[i], i) {
		i++
	}
	if i == 0 {
		return "", nil, 0, fmt.Errorf("no metric name in %q", line)
	}
	name = line[:i]
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		j := 1
		for {
			if j >= len(rest) {
				return "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
			}
			if rest[j] == '}' {
				j++
				break
			}
			// label name
			k := j
			for k < len(rest) && isLabelChar(rest[k], k-j) {
				k++
			}
			if k == j || k >= len(rest) || rest[k] != '=' {
				return "", nil, 0, fmt.Errorf("bad label name in %q", line)
			}
			lname := rest[j:k]
			k++
			if k >= len(rest) || rest[k] != '"' {
				return "", nil, 0, fmt.Errorf("unquoted label value in %q", line)
			}
			k++
			var val strings.Builder
			for {
				if k >= len(rest) {
					return "", nil, 0, fmt.Errorf("unterminated label value in %q", line)
				}
				c := rest[k]
				if c == '\\' {
					if k+1 >= len(rest) {
						return "", nil, 0, fmt.Errorf("trailing backslash in %q", line)
					}
					switch rest[k+1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						return "", nil, 0, fmt.Errorf("bad escape \\%c in %q", rest[k+1], line)
					}
					k += 2
					continue
				}
				if c == '"' {
					k++
					break
				}
				val.WriteByte(c)
				k++
			}
			labels = append(labels, [2]string{lname, val.String()})
			if k < len(rest) && rest[k] == ',' {
				k++
			}
			j = k
		}
		rest = rest[j:]
	}
	rest = strings.TrimPrefix(rest, " ")
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("expected value [timestamp] after %s, got %q", name, rest)
	}
	switch fields[0] {
	case "+Inf":
		value = math.Inf(+1)
	case "-Inf":
		value = math.Inf(-1)
	case "NaN":
		value = math.NaN()
	default:
		if value, err = strconv.ParseFloat(fields[0], 64); err != nil {
			return "", nil, 0, fmt.Errorf("bad value %q: %v", fields[0], err)
		}
	}
	return name, labels, value, nil
}

func isNameChar(c byte, i int) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
		(i > 0 && c >= '0' && c <= '9')
}

func isLabelChar(c byte, i int) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
		(i > 0 && c >= '0' && c <= '9')
}
