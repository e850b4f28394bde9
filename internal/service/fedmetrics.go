package service

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Metrics federation mirrors the per-shard snapshot contract one level
// up: the front-end scrapes each backend's /metrics at render time, sums
// the samples into the aggregate families a single engine would expose
// (same names, so dashboards work unchanged), and follows them with
// per-backend gsan_backend_* families whose samples sum exactly to the
// aggregate — exact because both views are computed from the same set of
// scrapes, never from two reads racing live counters.

// promSample is one parsed exposition sample: the label block verbatim
// ("" or "{k=\"v\",...}") and its integer value (every gsan family
// renders %d).
type promSample struct {
	labels string
	value  uint64
}

// promFamily is one parsed metric family in first-seen order.
type promFamily struct {
	name, help, kind string
	samples          []promSample
}

// parseProm folds one backend's exposition text into fams/order. Samples
// for the same (family, labels) accumulate — that is the aggregation.
func parseProm(text string, fams map[string]*promFamily, order *[]string) error {
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	family := func(name string) *promFamily {
		f := fams[name]
		if f == nil {
			f = &promFamily{name: name}
			fams[name] = f
			*order = append(*order, name)
		}
		return f
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) >= 4 && parts[1] == "HELP" {
				family(parts[2]).help = parts[3]
			} else if len(parts) >= 4 && parts[1] == "TYPE" {
				family(parts[2]).kind = parts[3]
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return fmt.Errorf("unparseable sample %q", line)
		}
		v, err := strconv.ParseUint(line[sp+1:], 10, 64)
		if err != nil {
			return fmt.Errorf("sample %q: %v", line, err)
		}
		name, labels := line[:sp], ""
		if br := strings.IndexByte(name, '{'); br >= 0 {
			name, labels = name[:br], line[br:sp]
		}
		f := family(name)
		found := false
		for i := range f.samples {
			if f.samples[i].labels == labels {
				f.samples[i].value += v
				found = true
				break
			}
		}
		if !found {
			f.samples = append(f.samples, promSample{labels: labels, value: v})
		}
	}
	return sc.Err()
}

// maxScrapeBytes caps one backend's /metrics body. A real exposition is a
// few KiB; the cap keeps a misbehaving or hostile backend from making the
// front-end buffer an unbounded response on every federated scrape.
const maxScrapeBytes = 4 << 20

// scrape fetches one backend's /metrics, failing when the body exceeds
// maxScrapeBytes.
func (rb *RemoteBackend) scrape(m *remoteMember) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), rb.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.url+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return "", fmt.Errorf("backend %s /metrics answered %d", m.name, resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxScrapeBytes+1))
	if err != nil {
		return "", err
	}
	if len(body) > maxScrapeBytes {
		return "", fmt.Errorf("backend %s /metrics body exceeds %d bytes", m.name, maxScrapeBytes)
	}
	return string(body), nil
}

// backendScalar extracts the label-less gsan_* families from one
// backend's parse — the ones that get a gsan_backend_* twin. Labeled
// families (per-sanitizer, per-tier, per-shard) stay aggregate-only, the
// same split the per-shard contract makes.
func backendScalar(fams map[string]*promFamily, order []string) []*promFamily {
	var out []*promFamily
	for _, name := range order {
		f := fams[name]
		if !strings.HasPrefix(name, "gsan_") || strings.HasPrefix(name, "gsan_shard_") {
			continue
		}
		if len(f.samples) == 1 && f.samples[0].labels == "" {
			out = append(out, f)
		}
	}
	return out
}

// WriteMetrics renders the federation view: the exact-sum aggregate of
// every backend's families under their original names, per-backend
// gsan_backend_* twins of the scalar families, and the front-end's own
// proxy families (routing, health, retry and scrape counters). The
// backends' gsan_shard_* families are not re-exported — a shard index is
// only meaningful within its process; scrape the backend directly for
// shard-level detail.
func (rb *RemoteBackend) WriteMetrics(w io.Writer) {
	agg := make(map[string]*promFamily)
	var aggOrder []string
	type scraped struct {
		member *remoteMember
		fams   map[string]*promFamily
		order  []string
	}
	var views []scraped
	for _, m := range rb.members {
		if !m.up.Load() {
			continue
		}
		text, err := rb.scrape(m)
		if err != nil {
			rb.scrapeFailed.Add(1)
			continue
		}
		fams := make(map[string]*promFamily)
		var order []string
		if err := parseProm(text, fams, &order); err != nil {
			rb.scrapeFailed.Add(1)
			continue
		}
		// Fold the same text into the aggregate: summing two parses of the
		// one scrape keeps aggregate and per-backend views exactly equal.
		if err := parseProm(text, agg, &aggOrder); err != nil {
			rb.scrapeFailed.Add(1)
			continue
		}
		views = append(views, scraped{m, fams, order})
	}

	// Aggregate families under their original names, sorted for stable
	// scrapes (backends may expose different subsets, e.g. the canary
	// families on one backend only).
	names := make([]string, 0, len(aggOrder))
	for _, n := range aggOrder {
		if !strings.HasPrefix(n, "gsan_shard_") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		f := agg[n]
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		sort.Slice(f.samples, func(a, b int) bool { return f.samples[a].labels < f.samples[b].labels })
		for _, s := range f.samples {
			fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.value)
		}
	}

	// Per-backend twins: gsan_X -> gsan_backend_X{backend="name"}. The
	// family list is the union over backends, each backend contributing
	// its own scraped value — summing exactly to the aggregate above.
	twinOrder := make([]string, 0)
	twinSeen := make(map[string]bool)
	twinKind := make(map[string]*promFamily)
	for _, v := range views {
		for _, f := range backendScalar(v.fams, v.order) {
			if !twinSeen[f.name] {
				twinSeen[f.name] = true
				twinOrder = append(twinOrder, f.name)
				twinKind[f.name] = f
			}
		}
	}
	sort.Strings(twinOrder)
	for _, name := range twinOrder {
		src := twinKind[name]
		twin := "gsan_backend_" + strings.TrimPrefix(name, "gsan_")
		fmt.Fprintf(w, "# HELP %s %s (per federation backend)\n# TYPE %s %s\n", twin, src.help, twin, src.kind)
		for _, v := range views {
			if f, ok := v.fams[name]; ok && len(f.samples) == 1 && f.samples[0].labels == "" {
				fmt.Fprintf(w, "%s{backend=%q} %d\n", twin, v.member.name, f.samples[0].value)
			}
		}
	}

	// The front-end's own families.
	fmt.Fprintf(w, "# HELP gsan_backend_up Whether the backend is in the routing ring (1) or ejected (0).\n# TYPE gsan_backend_up gauge\n")
	for _, m := range rb.members {
		up := 0
		if m.up.Load() {
			up = 1
		}
		fmt.Fprintf(w, "gsan_backend_up{backend=%q} %d\n", m.name, up)
	}
	fmt.Fprintf(w, "# HELP gsan_proxy_sessions_proxied_total Sessions this front-end proxied to the backend and got a 200 for.\n# TYPE gsan_proxy_sessions_proxied_total counter\n")
	for _, m := range rb.members {
		fmt.Fprintf(w, "gsan_proxy_sessions_proxied_total{backend=%q} %d\n", m.name, m.proxied.Load())
	}
	fmt.Fprintf(w, "# HELP gsan_proxy_backend_errors_total Proxy attempts that failed on the backend (transport or 5xx).\n# TYPE gsan_proxy_backend_errors_total counter\n")
	for _, m := range rb.members {
		fmt.Fprintf(w, "gsan_proxy_backend_errors_total{backend=%q} %d\n", m.name, m.errored.Load())
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("gsan_proxy_retries_total", "Sessions retried once onto the re-ringed backend after a connect failure.", rb.retries.Load())
	counter("gsan_proxy_ejections_total", "Backends ejected from the ring (health probe or connect failure).", rb.ejections.Load())
	counter("gsan_proxy_rerings_total", "Routing ring rebuilds on membership change.", rb.rerings.Load())
	counter("gsan_proxy_scrape_failures_total", "Backend /metrics scrapes that failed during federation rendering.", rb.scrapeFailed.Load())
	counter("gsan_proxy_no_backend_total", "Sessions refused because no healthy backend remained.", rb.noBackendErrs.Load())
}
