package cluster

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// scrapeTTL bounds how often the coordinator re-scrapes the fleet: an
// aggregated /metrics render younger than this is served as-is, so a
// scrape storm against the coordinator costs one fan-out, not many.
// A variable so tests can shrink the window.
var scrapeTTL = 2 * time.Second

// scrapeTimeout bounds each worker's /metrics fetch. The fan-out holds
// scrape.mu, so without it one worker that accepts the connection and
// never answers would stall every coordinator scrape; with it that
// worker costs one scrape this long and is skipped. Well inside a
// Prometheus server's default 10 s scrape timeout.
const scrapeTimeout = 2 * time.Second

// aggSample is one aggregated series: a renamed metric plus its label
// pair. perWorker marks runtime-health series that carry a worker label
// and are never summed.
type aggSample struct {
	name      string // renamed family, e.g. sinet_cluster_admission_total
	labels    string // "{code=\"202\"}" or ""
	value     float64
	perWorker bool
}

// perWorkerFamily reports whether a worker metric family is process
// runtime health (obs.RegisterRuntimeMetrics): goroutines, heap, GC
// pauses, fds. Summing those across the fleet would hide exactly what
// they exist to show — WHICH worker is sick — so the aggregator
// re-exports them per worker under a worker="<peer>" label instead.
func perWorkerFamily(name string) bool {
	return strings.HasPrefix(name, "sinet_go_") || strings.HasPrefix(name, "sinet_process_")
}

// workerLabel injects worker="<peer>" into an existing label set ("" or
// "{k=\"v\",...}"), keeping the result valid exposition syntax.
func workerLabel(labels, peer string) string {
	esc := strings.NewReplacer("\\", "\\\\", "\"", "\\\"").Replace(peer)
	pair := `worker="` + esc + `"`
	if labels == "" {
		return "{" + pair + "}"
	}
	return "{" + pair + "," + labels[1:]
}

// parseSamples folds one worker's text-format scrape into sums: counter
// and gauge series are summed by (name, labels) across the fleet —
// counters because cluster totals are what dashboards want, gauges
// because the fleet's queue depth is the sum of the workers'. Histogram
// and untyped families are skipped: their bucket series cannot be
// re-rendered in bound order without reimplementing the client, and the
// per-worker scrape remains available for them. Worker families are
// renamed "sinet_X" → "sinet_cluster_X" so the coordinator's own serving
// metrics (it runs a service.Server too) can never collide with the
// fleet aggregate.
func parseSamples(r io.Reader, worker string, types map[string]string, sums map[string]*aggSample) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) == 4 {
				types[fields[2]] = fields[3]
			}
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			continue
		}
		series, valText := line[:sp], line[sp+1:]
		value, err := strconv.ParseFloat(valText, 64)
		if err != nil {
			continue
		}
		name, labels := series, ""
		if b := strings.IndexByte(series, '{'); b >= 0 {
			name, labels = series[:b], series[b:]
		}
		switch types[name] {
		case "counter", "gauge":
		default:
			continue // histogram pieces, gauge funcs of unknown shape, untyped
		}
		renamed := "sinet_cluster_" + strings.TrimPrefix(name, "sinet_")
		if perWorkerFamily(name) {
			wl := workerLabel(labels, worker)
			sums[renamed+wl] = &aggSample{name: renamed, labels: wl, value: value, perWorker: true}
			continue
		}
		key := renamed + labels
		if s, ok := sums[key]; ok {
			s.value += value
		} else {
			sums[key] = &aggSample{name: renamed, labels: labels, value: value}
		}
	}
	return sc.Err()
}

// renderAgg writes the summed series in text exposition format, families
// sorted by name and series by label, with the worker-declared TYPE
// carried over.
func renderAgg(w io.Writer, types map[string]string, sums map[string]*aggSample) {
	keys := make([]string, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	lastFamily := ""
	for _, k := range keys {
		s := sums[k]
		if s.name != lastFamily {
			orig := "sinet_" + strings.TrimPrefix(s.name, "sinet_cluster_")
			if s.perWorker {
				fmt.Fprintf(w, "# HELP %s Per-worker value of %s (not summed).\n", s.name, orig)
			} else {
				fmt.Fprintf(w, "# HELP %s Cluster-wide sum of %s across workers.\n", s.name, orig)
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", s.name, types[orig])
			lastFamily = s.name
		}
		fmt.Fprintf(w, "%s%s %s\n", s.name, s.labels, strconv.FormatFloat(s.value, 'g', -1, 64))
	}
}

// scrapeCache memoizes the fleet aggregation for scrapeTTL.
type scrapeCache struct {
	mu       sync.Mutex
	rendered []byte
	at       time.Time
}

// aggregateMetrics scrapes every worker's /metrics concurrently and
// renders the summed, renamed series. Down workers are skipped — their
// absence shows on sinet_cluster_peer_up, and a partial sum beats no
// scrape at all.
func (c *Coordinator) aggregateMetrics() []byte {
	c.scrape.mu.Lock()
	defer c.scrape.mu.Unlock()
	if c.scrape.rendered != nil && time.Since(c.scrape.at) < scrapeTTL {
		return c.scrape.rendered
	}
	// The fan-out runs on its own deadline rather than the requesting
	// scraper's context: its result is memoized for every scraper.
	bodies := make([][]byte, len(c.cfg.Peers)) // nil: worker skipped
	var wg sync.WaitGroup
	for i, peer := range c.cfg.Peers {
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			resp, body, err := exchange(context.Background(), c.client, http.MethodGet, peer+"/metrics", nil, "", scrapeTimeout, 4<<20)
			if err == nil && resp.StatusCode == http.StatusOK {
				bodies[i] = body
			}
		}(i, peer)
	}
	wg.Wait()
	types := map[string]string{}
	sums := map[string]*aggSample{}
	for i, body := range bodies {
		_ = parseSamples(bytes.NewReader(body), c.cfg.Peers[i], types, sums)
	}
	var buf strings.Builder
	renderAgg(&buf, types, sums)
	c.scrape.rendered = []byte(buf.String())
	c.scrape.at = time.Now()
	return c.scrape.rendered
}
