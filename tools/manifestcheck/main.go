// Command manifestcheck validates the Kubernetes manifests under deploy/
// without kubectl or a YAML dependency: it parses the restricted YAML
// subset the manifests are written in (2-space indentation, maps, lists,
// double-quoted or plain scalars, ----separated documents, full-line
// comments) and asserts the deployment contract the rest of the repo
// depends on — probe paths match the server's health surfaces, the gossip
// seed resolves through a headless Service, the WAL directory is backed by
// a PVC, and the SIGTERM drain budget fits inside the grace period.
//
// Usage: go run ./tools/manifestcheck [-dir deploy]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	dir := flag.String("dir", "deploy", "directory of manifests to validate")
	flag.Parse()

	paths, err := filepath.Glob(filepath.Join(*dir, "*.yaml"))
	if err != nil || len(paths) == 0 {
		fmt.Fprintf(os.Stderr, "manifestcheck: no *.yaml under %s\n", *dir)
		os.Exit(1)
	}
	sort.Strings(paths)

	var docs []doc
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "manifestcheck: %v\n", err)
			os.Exit(1)
		}
		for i, src := range splitDocs(string(blob)) {
			v, err := parseYAML(src)
			if err != nil {
				fmt.Fprintf(os.Stderr, "manifestcheck: %s doc %d: %v\n", p, i+1, err)
				os.Exit(1)
			}
			m, ok := v.(map[string]any)
			if !ok {
				fmt.Fprintf(os.Stderr, "manifestcheck: %s doc %d: top level is not a mapping\n", p, i+1)
				os.Exit(1)
			}
			docs = append(docs, doc{path: p, n: i + 1, m: m})
		}
	}

	c := &checker{}
	var sets []doc
	headless := map[string]bool{} // headless Service name -> publishNotReadyAddresses
	for _, d := range docs {
		kind, _ := str(d.m, "kind")
		name, _ := str(d.m, "metadata", "name")
		if name == "" {
			c.errf(d, "metadata.name is missing")
		}
		switch kind {
		case "Service":
			c.checkService(d, headless)
		case "StatefulSet":
			sets = append(sets, d)
		default:
			c.errf(d, "unexpected kind %q (only Service and StatefulSet belong in deploy/)", kind)
		}
	}
	if len(sets) == 0 {
		fmt.Fprintln(os.Stderr, "manifestcheck: no StatefulSet found")
		os.Exit(1)
	}
	for _, d := range sets {
		c.checkStatefulSet(d, headless)
	}
	if c.fail {
		os.Exit(1)
	}
	fmt.Printf("manifestcheck: %d documents in %d files OK\n", len(docs), len(paths))
}

type doc struct {
	path string
	n    int
	m    map[string]any
}

type checker struct{ fail bool }

func (c *checker) errf(d doc, format string, args ...any) {
	c.fail = true
	fmt.Fprintf(os.Stderr, "manifestcheck: %s doc %d: %s\n", d.path, d.n, fmt.Sprintf(format, args...))
}

func (c *checker) checkService(d doc, headless map[string]bool) {
	if api, _ := str(d.m, "apiVersion"); api != "v1" {
		c.errf(d, "Service apiVersion %q, want v1", api)
	}
	name, _ := str(d.m, "metadata", "name")
	if _, ok := get(d.m, "spec", "selector", "app"); !ok {
		c.errf(d, "Service %s: spec.selector.app is missing", name)
	}
	ports, _ := get(d.m, "spec", "ports")
	pl, _ := ports.([]any)
	if len(pl) == 0 {
		c.errf(d, "Service %s: spec.ports is empty", name)
	}
	for _, p := range pl {
		pm, _ := p.(map[string]any)
		if _, ok := str(pm, "name"); !ok {
			c.errf(d, "Service %s: every port needs a name", name)
		}
		if port, ok := str(pm, "port"); !ok || !isInt(port) {
			c.errf(d, "Service %s: port %q is not an integer", name, port)
		}
	}
	if ip, _ := str(d.m, "spec", "clusterIP"); ip == "None" {
		pub, _ := str(d.m, "spec", "publishNotReadyAddresses")
		headless[name] = pub == "true"
	}
}

func (c *checker) checkStatefulSet(d doc, headless map[string]bool) {
	if api, _ := str(d.m, "apiVersion"); api != "apps/v1" {
		c.errf(d, "StatefulSet apiVersion %q, want apps/v1", api)
	}
	name, _ := str(d.m, "metadata", "name")

	// The governing Service must exist, be headless, and publish unready
	// addresses — a booting pod is NotReady until its first rebalance
	// completes, but gossip needs its DNS name resolvable immediately.
	svc, _ := str(d.m, "spec", "serviceName")
	if svc == "" {
		c.errf(d, "StatefulSet %s: spec.serviceName is missing", name)
	} else if pub, ok := headless[svc]; !ok {
		c.errf(d, "StatefulSet %s: serviceName %q does not match any headless Service (clusterIP: None)", name, svc)
	} else if !pub {
		c.errf(d, "StatefulSet %s: headless Service %q must set publishNotReadyAddresses: true (gossip seed must resolve before ready)", name, svc)
	}

	if r, ok := str(d.m, "spec", "replicas"); !ok || !isInt(r) {
		c.errf(d, "StatefulSet %s: spec.replicas %q is not an integer", name, r)
	}
	sel, _ := str(d.m, "spec", "selector", "matchLabels", "app")
	lbl, _ := str(d.m, "spec", "template", "metadata", "labels", "app")
	if sel == "" || sel != lbl {
		c.errf(d, "StatefulSet %s: selector.matchLabels.app %q != template label %q", name, sel, lbl)
	}

	// Scrape annotations must agree with the container port so the
	// Prometheus discovery config in docs/DEPLOY.md works as written.
	if v, _ := str(d.m, "spec", "template", "metadata", "annotations", "prometheus.io/scrape"); v != "true" {
		c.errf(d, "StatefulSet %s: prometheus.io/scrape annotation is %q, want \"true\"", name, v)
	}
	if v, _ := str(d.m, "spec", "template", "metadata", "annotations", "prometheus.io/path"); v != "/metrics" {
		c.errf(d, "StatefulSet %s: prometheus.io/path annotation is %q, want \"/metrics\"", name, v)
	}
	scrapePort, _ := str(d.m, "spec", "template", "metadata", "annotations", "prometheus.io/port")

	cs, _ := get(d.m, "spec", "template", "spec", "containers")
	cl, _ := cs.([]any)
	if len(cl) == 0 {
		c.errf(d, "StatefulSet %s: no containers", name)
		return
	}
	ct, _ := cl[0].(map[string]any)

	args := stringList(ct["args"])
	joined := strings.Join(args, " ")
	for _, want := range []string{"-cluster", "-decommission"} {
		if !hasArg(args, want) {
			c.errf(d, "StatefulSet %s: container args are missing %s", name, want)
		}
	}

	// Every $(VAR) substitution in args must be backed by an env entry, or
	// kubelet passes the literal through and the node advertises garbage.
	env, _ := ct["env"].([]any)
	envNames := map[string]bool{}
	for _, e := range env {
		em, _ := e.(map[string]any)
		if n, ok := str(em, "name"); ok {
			envNames[n] = true
		}
	}
	for _, v := range [...]string{"POD_NAME", "POD_NAMESPACE"} {
		if strings.Contains(joined, "$("+v+")") && !envNames[v] {
			c.errf(d, "StatefulSet %s: args reference $(%s) but no env entry defines it", name, v)
		}
	}
	// -advertise and -join must route through the headless Service's DNS.
	if svc != "" && !strings.Contains(joined, "-advertise=http://$(POD_NAME)."+svc+".") {
		c.errf(d, "StatefulSet %s: -advertise must use the per-pod DNS name $(POD_NAME).%s....", name, svc)
	}
	if svc != "" && !strings.Contains(joined, "-join=http://"+name+"-0."+svc+".") {
		c.errf(d, "StatefulSet %s: -join must seed from pod 0 via the headless Service", name)
	}

	// Probe contract: liveness /v1/healthz (restart on hang), readiness
	// /v1/readyz (depool while rebalancing); see docs/OPERATIONS.md.
	portNames := map[string]string{}
	for _, p := range stringListOfMaps(ct["ports"]) {
		n, _ := str(p, "name")
		cp, _ := str(p, "containerPort")
		portNames[n] = cp
	}
	c.checkProbe(d, name, ct, "readinessProbe", "/v1/readyz", portNames)
	c.checkProbe(d, name, ct, "livenessProbe", "/v1/healthz", portNames)
	if scrapePort != "" {
		found := false
		for _, cp := range portNames {
			if cp == scrapePort {
				found = true
			}
		}
		if !found {
			c.errf(d, "StatefulSet %s: prometheus.io/port %q matches no containerPort", name, scrapePort)
		}
	}

	// The WAL directory must live on a PVC: -dir points at a volumeMount
	// whose name matches a volumeClaimTemplate.
	dirArg := ""
	for _, a := range args {
		if v, ok := strings.CutPrefix(a, "-dir="); ok {
			dirArg = v
		}
	}
	if dirArg == "" {
		c.errf(d, "StatefulSet %s: container args are missing -dir=", name)
	}
	mountName := ""
	for _, m := range stringListOfMaps(ct["volumeMounts"]) {
		if mp, _ := str(m, "mountPath"); mp == dirArg {
			mountName, _ = str(m, "name")
		}
	}
	if mountName == "" {
		c.errf(d, "StatefulSet %s: -dir=%s is not a volumeMount mountPath (WAL would land on the ephemeral layer)", name, dirArg)
	}
	claimed := false
	vcts, _ := get(d.m, "spec", "volumeClaimTemplates")
	for _, t := range toMaps(vcts) {
		n, _ := str(t, "metadata", "name")
		if n != mountName {
			continue
		}
		claimed = true
		if _, ok := str(t, "spec", "resources", "requests", "storage"); !ok {
			c.errf(d, "StatefulSet %s: volumeClaimTemplate %q requests no storage", name, n)
		}
		if modes := stringList(mustGet(t, "spec", "accessModes")); len(modes) == 0 {
			c.errf(d, "StatefulSet %s: volumeClaimTemplate %q has no accessModes", name, n)
		}
	}
	if mountName != "" && !claimed {
		c.errf(d, "StatefulSet %s: volumeMount %q has no matching volumeClaimTemplate", name, mountName)
	}

	// SIGTERM drain: grace period must exceed the -drain-timeout budget,
	// or the kubelet SIGKILLs counterd mid-handoff.
	grace, _ := str(d.m, "spec", "template", "spec", "terminationGracePeriodSeconds")
	gsec, err := strconv.Atoi(grace)
	if err != nil {
		c.errf(d, "StatefulSet %s: terminationGracePeriodSeconds %q is not an integer", name, grace)
		return
	}
	for _, a := range args {
		if v, ok := strings.CutPrefix(a, "-drain-timeout="); ok {
			dur, err := time.ParseDuration(v)
			if err != nil {
				c.errf(d, "StatefulSet %s: -drain-timeout=%s: %v", name, v, err)
			} else if time.Duration(gsec)*time.Second <= dur {
				c.errf(d, "StatefulSet %s: terminationGracePeriodSeconds %d must exceed -drain-timeout %s", name, gsec, v)
			}
		}
	}
}

func (c *checker) checkProbe(d doc, name string, ct map[string]any, probe, wantPath string, ports map[string]string) {
	path, ok := str(ct, probe, "httpGet", "path")
	if !ok {
		c.errf(d, "StatefulSet %s: container has no %s.httpGet", name, probe)
		return
	}
	if path != wantPath {
		c.errf(d, "StatefulSet %s: %s path %q, want %s", name, probe, path, wantPath)
	}
	port, _ := str(ct, probe, "httpGet", "port")
	if _, named := ports[port]; !named && !isInt(port) {
		c.errf(d, "StatefulSet %s: %s port %q matches no container port name", name, probe, port)
	}
}

// --- generic access helpers -------------------------------------------------

func get(m map[string]any, path ...string) (any, bool) {
	var cur any = m
	for _, k := range path {
		mm, ok := cur.(map[string]any)
		if !ok {
			return nil, false
		}
		cur, ok = mm[k]
		if !ok {
			return nil, false
		}
	}
	return cur, true
}

func mustGet(m map[string]any, path ...string) any {
	v, _ := get(m, path...)
	return v
}

func str(m map[string]any, path ...string) (string, bool) {
	v, ok := get(m, path...)
	if !ok {
		return "", false
	}
	s, ok := v.(string)
	return s, ok
}

func isInt(s string) bool {
	_, err := strconv.Atoi(s)
	return err == nil
}

func hasArg(args []string, flag string) bool {
	for _, a := range args {
		if a == flag || strings.HasPrefix(a, flag+"=") {
			return true
		}
	}
	return false
}

func stringList(v any) []string {
	l, _ := v.([]any)
	out := make([]string, 0, len(l))
	for _, e := range l {
		if s, ok := e.(string); ok {
			out = append(out, s)
		}
	}
	return out
}

func toMaps(v any) []map[string]any {
	l, _ := v.([]any)
	out := make([]map[string]any, 0, len(l))
	for _, e := range l {
		if m, ok := e.(map[string]any); ok {
			out = append(out, m)
		}
	}
	return out
}

func stringListOfMaps(v any) []map[string]any { return toMaps(v) }

// --- the YAML-subset parser -------------------------------------------------

// splitDocs splits on "---" document separators at column 0.
func splitDocs(src string) []string {
	var docs []string
	var cur []string
	for _, line := range strings.Split(src, "\n") {
		if strings.TrimRight(line, " ") == "---" {
			docs = append(docs, strings.Join(cur, "\n"))
			cur = cur[:0]
			continue
		}
		cur = append(cur, line)
	}
	docs = append(docs, strings.Join(cur, "\n"))
	var out []string
	for _, d := range docs {
		if strings.TrimSpace(d) != "" {
			out = append(out, d)
		}
	}
	return out
}

type yline struct {
	indent int
	text   string // content with indentation stripped
	num    int    // 1-based source line
}

// parseYAML parses one document of the restricted subset: nested maps
// (`key: value` / `key:` + indented block), lists (`- item`, `- key: v`
// opening a map item), double-quoted or plain scalars, full-line comments.
// Tabs, anchors, flow collections, block scalars, and trailing comments are
// rejected — the deploy/ manifests stay inside this subset on purpose.
func parseYAML(src string) (any, error) {
	var lines []yline
	for i, raw := range strings.Split(src, "\n") {
		if strings.Contains(raw, "\t") {
			return nil, fmt.Errorf("line %d: tab indentation is outside the subset", i+1)
		}
		trimmed := strings.TrimLeft(raw, " ")
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		lines = append(lines, yline{indent: len(raw) - len(trimmed), text: strings.TrimRight(trimmed, " "), num: i + 1})
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("empty document")
	}
	v, next, err := parseBlock(lines, 0, lines[0].indent)
	if err != nil {
		return nil, err
	}
	if next != len(lines) {
		return nil, fmt.Errorf("line %d: %q is indented under nothing", lines[next].num, lines[next].text)
	}
	return v, nil
}

func parseBlock(lines []yline, i, indent int) (any, int, error) {
	if strings.HasPrefix(lines[i].text, "- ") || lines[i].text == "-" {
		return parseList(lines, i, indent)
	}
	return parseMap(lines, i, indent)
}

func parseMap(lines []yline, i, indent int) (any, int, error) {
	m := map[string]any{}
	for i < len(lines) {
		ln := lines[i]
		if ln.indent < indent {
			break
		}
		if ln.indent > indent {
			return nil, 0, fmt.Errorf("line %d: unexpected indent", ln.num)
		}
		if strings.HasPrefix(ln.text, "- ") {
			break // a list at this indent belongs to the parent key
		}
		key, rest, ok := strings.Cut(ln.text, ":")
		if !ok {
			return nil, 0, fmt.Errorf("line %d: %q is not `key: value`", ln.num, ln.text)
		}
		key = strings.TrimSpace(key)
		rest = strings.TrimSpace(rest)
		if _, dup := m[key]; dup {
			return nil, 0, fmt.Errorf("line %d: duplicate key %q", ln.num, key)
		}
		if rest != "" {
			s, err := scalar(rest, ln.num)
			if err != nil {
				return nil, 0, err
			}
			m[key] = s
			i++
			continue
		}
		i++
		// `key:` introduces a nested block — deeper-indented map or scalar,
		// or a list indented at least as far as the key.
		if i >= len(lines) || lines[i].indent < indent ||
			(lines[i].indent == indent && !strings.HasPrefix(lines[i].text, "- ")) {
			return nil, 0, fmt.Errorf("line %d: key %q has no value", ln.num, key)
		}
		v, next, err := parseBlock(lines, i, lines[i].indent)
		if err != nil {
			return nil, 0, err
		}
		m[key] = v
		i = next
	}
	return m, i, nil
}

func parseList(lines []yline, i, indent int) (any, int, error) {
	var l []any
	for i < len(lines) {
		ln := lines[i]
		if ln.indent != indent || !strings.HasPrefix(ln.text, "- ") {
			if ln.indent >= indent {
				return nil, 0, fmt.Errorf("line %d: %q inside a list block", ln.num, ln.text)
			}
			break
		}
		item := strings.TrimSpace(ln.text[2:])
		if k, _, ok := strings.Cut(item, ":"); ok && !strings.HasPrefix(item, "\"") && isKey(k) {
			// `- key: ...` opens a map item: re-anchor this line at the
			// item's own column and parse a map block there.
			sub := make([]yline, 0, len(lines)-i)
			sub = append(sub, yline{indent: ln.indent + 2, text: item, num: ln.num})
			j := i + 1
			for j < len(lines) && lines[j].indent > ln.indent {
				sub = append(sub, lines[j])
				j++
			}
			v, next, err := parseMap(sub, 0, ln.indent+2)
			if err != nil {
				return nil, 0, err
			}
			if next != len(sub) {
				return nil, 0, fmt.Errorf("line %d: stray content in list item", sub[next].num)
			}
			l = append(l, v)
			i = j
			continue
		}
		s, err := scalar(item, ln.num)
		if err != nil {
			return nil, 0, err
		}
		l = append(l, s)
		i++
	}
	return l, i, nil
}

// isKey reports whether s looks like a mapping key (letters, digits, and
// the punctuation K8s field names use), so `- -cluster` parses as a scalar
// while `- name: data` opens a map.
func isKey(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '/', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}

func scalar(s string, num int) (string, error) {
	if strings.HasPrefix(s, "\"") {
		uq, err := strconv.Unquote(s)
		if err != nil {
			return "", fmt.Errorf("line %d: bad quoted scalar %s: %v", num, s, err)
		}
		return uq, nil
	}
	if strings.HasPrefix(s, "'") || strings.Contains(s, " #") {
		return "", fmt.Errorf("line %d: scalar %q is outside the subset (use double quotes, no trailing comments)", num, s)
	}
	return s, nil
}
