package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/sinet-io/sinet/internal/service"
	"github.com/sinet-io/sinet/internal/tracing"
)

// Names of the per-kind and per-phase layer metrics.
var (
	kinds      = []string{service.KindPassive, service.KindActive, service.KindCoverage, service.KindBackhaul, service.KindRouting}
	selfKinds  = []string{service.KindActive, service.KindPassive, service.KindRouting}
	phaseNames = []string{"ephemeris", "contacts", "plan", "latitudes", "packets", "satellites", "topology"}
)

// maxTraces bounds how many job timelines a traced run fetches.
const maxTraces = 400

// span is one exported span with its interval parsed.
type span struct {
	tracing.SpanJSON
	start, end time.Time
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

// timeline is one job's stitched spans: the program's (from
// GET /v1/jobs/{id}/trace) plus the benchmark's own.
type timeline struct {
	o     *outcome
	spans []*span
	kids  map[string][]*span
	byID  map[string]*span
}

func newTimeline(o *outcome, raw []tracing.SpanJSON) *timeline {
	tl := &timeline{o: o, kids: map[string][]*span{}, byID: map[string]*span{}}
	for _, r := range raw {
		st, err := time.Parse(time.RFC3339Nano, r.Start)
		if err != nil {
			continue
		}
		s := &span{SpanJSON: r, start: st, end: st.Add(time.Duration(r.DurationMS * float64(time.Millisecond)))}
		tl.spans = append(tl.spans, s)
		tl.byID[r.SpanID] = s
	}
	for _, s := range tl.spans {
		if s.ParentID != "" {
			tl.kids[s.ParentID] = append(tl.kids[s.ParentID], s)
		}
	}
	return tl
}

// self is a span's duration minus the part of it its children cover.
func (tl *timeline) self(s *span) time.Duration {
	kids := tl.kids[s.SpanID]
	iv := make([][2]time.Time, 0, len(kids))
	for _, k := range kids {
		a, b := k.start, k.end
		if a.Before(s.start) {
			a = s.start
		}
		if b.After(s.end) {
			b = s.end
		}
		if b.After(a) {
			iv = append(iv, [2]time.Time{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var covered time.Duration
	var cur [2]time.Time
	for i, v := range iv {
		if i == 0 || v[0].After(cur[1]) {
			if i > 0 {
				covered += cur[1].Sub(cur[0])
			}
			cur = v
			continue
		}
		if v[1].After(cur[1]) {
			cur[1] = v[1]
		}
	}
	if len(iv) > 0 {
		covered += cur[1].Sub(cur[0])
	}
	return s.dur() - covered
}

// child returns the last-started span called name under the job's own
// "job" span: the one the client's request (or the coordinator's proxy
// hop) created, as opposed to shard sub-jobs, whose job spans hang under
// shard attempts.
func (tl *timeline) child(name string) *span {
	var best *span
	for _, s := range tl.spans {
		if s.Name != "job" {
			continue
		}
		if p := tl.byID[s.ParentID]; p == nil || (p.Name != "bench.job" && p.Name != "proxy.submit") {
			continue
		}
		for _, k := range tl.kids[s.SpanID] {
			if k.Name == name && (best == nil || k.start.After(best.start)) {
				best = k
			}
		}
	}
	return best
}

// attempt is the job's own final attempt span.
func (tl *timeline) attempt() *span { return tl.child("attempt") }

// fetchTimelines assembles the timelines of outs through the entry
// daemon's GET /v1/jobs/{id}/trace (a coordinator stitches its workers').
func (t *target) fetchTimelines(outs []*outcome, rec *recorder) ([]*timeline, error) {
	var tls []*timeline
	for _, o := range outs {
		var jt service.JobTrace
		if err := getJSON(t.client, t.entry.base+"/v1/jobs/"+o.id+"/trace", &jt); err != nil {
			return nil, fmt.Errorf("trace of %s: %w", o.id, err)
		}
		tls = append(tls, newTimeline(o, append(jt.Spans, rec.trace(o.trace)...)))
	}
	return tls, nil
}

func okOutcomes(outs []outcome) []*outcome {
	var out []*outcome
	for i := range outs {
		if outs[i].err == nil {
			out = append(out, &outs[i])
		}
	}
	return out
}

func lastN(outs []*outcome, n int) []*outcome {
	if len(outs) > n {
		return outs[len(outs)-n:]
	}
	return outs
}

func msOf(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return xs
}

// layers derives the per-layer metrics of a traced pass. Rates per job
// divide window counter deltas by the window's completed jobs. Time
// distributions (medians) come from the window's computed jobs; when the
// window computed none (hot-repeat serves only cache hits) they come from
// the set-up's prefill instead, and the log says so.
func (t *target) layers(opt options, p *pass, pr *probe, rec *recorder) (map[string]metric, error) {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{v, unit}
	}
	n := math.Max(1, float64(len(p.samples)))
	delta := func(name string) float64 { return p.after.counters[name] - p.before.counters[name] }

	// obs: one scrape of the entry daemon's /metrics (a coordinator
	// aggregates its fleet's).
	t0 := time.Now()
	resp, err := t.client.Get(t.entry.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	put("obs.scrape_ms", ms(time.Since(t0)), "ms")

	// Which jobs the time distributions describe.
	window := okOutcomes(p.outs)
	runs := pr.runsSince(p.start)
	fromSetup := len(runs) == 0
	if fromSetup {
		runs = pr.runsSince(time.Time{})
		fmt.Fprintf(opt.log, "layers: the window computed no job; compute-layer times describe the %d set-up jobs\n", len(t.setupTL))
	}
	byTrace := map[tracing.TraceID]*outcome{}
	for _, o := range append(okOutcomes(t.setup), window...) {
		byTrace[o.trace] = o
	}

	// service
	var submit, get, finish, proxy, progress []time.Duration
	for _, o := range p.samples {
		submit = append(submit, o.accepted.Sub(o.sent))
		get = append(get, o.end.Sub(o.terminal))
	}
	perTrace := map[tracing.TraceID][]runRec{}
	for _, r := range runs {
		perTrace[r.trace] = append(perTrace[r.trace], r)
	}
	runMS := map[string][]float64{}
	var cbMS []float64
	units, unitBytes := 0, 0
	for _, r := range runs {
		if !r.shard {
			runMS[r.kind] = append(runMS[r.kind], ms(r.ret.Sub(r.entry)))
		}
		if r.units > 0 {
			cbMS = append(cbMS, ms(r.checkpoint))
		}
		progress = append(progress, r.progress)
	}
	for _, r := range pr.runsSince(p.start) {
		units += r.units
		unitBytes += r.unitBytes
	}
	for tr, rs := range perTrace {
		o := byTrace[tr]
		if o == nil || len(rs) != 1 || rs[0].shard {
			continue
		}
		finish = append(finish, o.end.Sub(rs[0].ret))
		if opt.workload == wlFleet {
			proxy = append(proxy, o.latency()-rs[0].ret.Sub(rs[0].entry))
		}
	}
	put("service.submit_ms", median(msOf(submit)), "ms")
	put("service.result_get_ms", median(msOf(get)), "ms")
	put("service.finish_ms", median(msOf(finish)), "ms")
	put("service.progress_cb_ms", median(msOf(progress)), "ms")
	bytesSum := 0
	for _, o := range p.samples {
		bytesSum += o.bytes
	}
	put("service.result_bytes", float64(bytesSum)/n, "B")
	ck, err := configKeyMicros(window)
	if err != nil {
		return nil, err
	}
	put("service.configkey_us", ck, "us")
	hits := float64(p.after.cache.Hits - p.before.cache.Hits)
	misses := float64(p.after.cache.Misses - p.before.cache.Misses)
	put("service.cache_hit_ratio", hits/math.Max(1, hits+misses), "ratio")
	put("service.cache_evictions", float64(p.after.cache.Evictions-p.before.cache.Evictions), "count")
	refused := 0
	for _, o := range p.outs {
		if errors.Is(o.err, errRefused) {
			refused++
		}
	}
	put("service.rejected", float64(refused), "count")
	put("service.jobs_retained", float64(p.after.jobs), "count")

	// journal, sim, orbit, netgraph, cluster and tracing counts per job.
	put("journal.checkpoint_cb_ms", median(cbMS), "ms")
	jw, js := float64(p.journalWrites), float64(p.journalSyncs)
	put("journal.writes_per_job", jw/n, "count")
	put("journal.syncs_per_job", js/n, "count")
	put("journal.syncs_per_write", js/math.Max(1, jw), "ratio")
	put("journal.bytes_per_job", float64(p.after.journalBytes-p.before.journalBytes)/n, "B")
	put("core.checkpoint_units_per_job", float64(units)/n, "count")
	put("core.checkpoint_bytes_per_job", float64(unitBytes)/n, "B")
	put("sim.tasks_per_job", delta("sinet_sim_tasks_total")/n, "count")
	put("orbit.sgp4_per_job", delta("sinet_sgp4_calls_total")/n, "count")
	put("orbit.eph_hits_per_job", delta("sinet_ephemeris_hits_total")/n, "count")
	put("orbit.eph_interp_per_job", delta("sinet_ephemeris_interp_total")/n, "count")
	put("orbit.eph_misses_per_job", delta("sinet_ephemeris_misses_total")/n, "count")
	put("netgraph.topology_builds_per_job", delta("sinet_topology_builds_total")/n, "count")
	put("netgraph.routes_per_job", delta("sinet_route_computations_total")/n, "count")
	put("cluster.shards_per_job", delta("sinet_cluster_shard_fanout_total")/n, "count")
	put("cluster.failovers", delta("sinet_cluster_failovers_total"), "count")
	put("tracing.spans_per_job", float64(p.after.spans-p.before.spans)/n, "count")
	put("go.alloc_mb_per_job", p.rt[0]/(1<<20)/n, "MB")
	put("go.allocs_per_job", p.rt[1]/n, "count")
	put("go.gc_pause_ms_per_job", 1000*p.rt[2]/n, "ms")
	var lag []float64
	for _, l := range p.lags {
		lag = append(lag, ms(l))
	}
	put("bench.gen_lag_p99_ms", percentile(lag, 99), "ms")
	for _, k := range kinds {
		put("core.run_ms."+k, median(runMS[k]), "ms")
	}
	put("cluster.proxy_overhead_ms", median(msOf(proxy)), "ms")

	// Span-derived metrics.
	fetch := lastN(window, maxTraces)
	if fromSetup {
		fetch = lastN(window, 100)
	}
	tls, err := t.fetchTimelines(fetch, rec)
	if err != nil {
		return nil, err
	}
	compute := tls
	if fromSetup {
		compute = t.setupTL
		tls = append(append([]*timeline(nil), t.setupTL...), tls...)
	}
	var queue []float64
	phases := map[string][]float64{}
	self := map[string][]float64{}
	named := map[string][]float64{}
	peerFills := 0
	for _, tl := range compute {
		sums := map[string]float64{}
		sharded := false
		for _, s := range tl.spans {
			if ph, ok := strings.CutPrefix(s.Name, "phase:"); ok {
				sums[ph] += ms(s.dur())
			}
			switch s.Name {
			case "shard", "fanout", "checkpoint.fold", "merge":
				named[s.Name] = append(named[s.Name], ms(s.dur()))
				sharded = true
			case "cache.peer_fill":
				peerFills++
			}
		}
		for ph, v := range sums {
			phases[ph] = append(phases[ph], v)
		}
		if q := tl.child("queue.wait"); q != nil {
			queue = append(queue, ms(q.dur()))
		}
		if a := tl.attempt(); a != nil && !sharded {
			self[tl.o.job.kind] = append(self[tl.o.job.kind], ms(tl.self(a)))
		}
	}
	// The 202 is written only after the submit record is fsynced, by which
	// time a free worker has usually started the job, so the queue wait is
	// the program's queue.wait span (enqueue to worker pickup).
	put("service.queue_wait_ms", median(queue), "ms")
	for _, ph := range phaseNames {
		put("core.phase_ms."+ph, median(phases[ph]), "ms")
	}
	for _, k := range selfKinds {
		put("core.self_ms."+k, median(self[k]), "ms")
	}
	put("cluster.shard_run_ms", median(named["shard"]), "ms")
	put("cluster.fanout_ms", median(named["fanout"]), "ms")
	put("cluster.fold_ms", median(named["checkpoint.fold"]), "ms")
	put("cluster.merge_ms", median(named["merge"]), "ms")
	put("cluster.peer_lookups_per_job", float64(peerFills)/math.Max(1, float64(len(compute))), "count")

	if err := writeTraces(opt, tls); err != nil {
		return nil, err
	}
	return m, nil
}

// configKeyMicros times direct service.ConfigKey calls over the window's
// specs (each call on a freshly decoded copy) and returns the median.
func configKeyMicros(outs []*outcome) (float64, error) {
	var us []float64
	for _, o := range lastN(outs, 200) {
		spec, err := o.job.spec()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if _, err := service.ConfigKey(spec); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return median(us), nil
}

// writeTraces writes the traced run's timelines (program and benchmark
// spans) and a per-shape self-time table of each job's attempt.
func writeTraces(opt options, tls []*timeline) error {
	if err := os.MkdirAll(opt.outdir, 0o755); err != nil {
		return fmt.Errorf("output dir: %w", err)
	}
	type jobJSON struct {
		JobID   string             `json:"job_id"`
		Shape   string             `json:"shape"`
		TraceID string             `json:"trace_id"`
		Spans   []tracing.SpanJSON `json:"spans"`
	}
	doc := struct {
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		Jobs     []jobJSON `json:"jobs"`
	}{Workload: opt.workload, Seed: opt.seed}
	for _, tl := range tls {
		jj := jobJSON{JobID: tl.o.id, Shape: tl.o.job.shape, TraceID: tl.o.trace.String()}
		for _, s := range tl.spans {
			jj.Spans = append(jj.Spans, s.SpanJSON)
		}
		tracing.SortSpans(jj.Spans)
		doc.Jobs = append(doc.Jobs, jj)
	}
	stem := filepath.Join(opt.outdir, fmt.Sprintf("%s-seed%d", opt.workload, opt.seed))
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(stem+".spans.json", data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	table := selfTimeTable(tls)
	if err := os.WriteFile(stem+".selftime.txt", []byte(table), 0o644); err != nil {
		return fmt.Errorf("write self-time table: %w", err)
	}
	fmt.Fprintf(opt.log, "wrote %s.spans.json (%d jobs) and %s.selftime.txt\n", stem, len(tls), stem)
	return nil
}

// selfTimeTable aggregates every job's attempt span tree by shape and span
// path: for each path the span count, median duration and median self
// time (duration minus what its children cover).
func selfTimeTable(tls []*timeline) string {
	type cell struct{ dur, self []float64 }
	byShape := map[string]map[string]*cell{}
	order := map[string][]string{}
	jobs := map[string]int{}
	for _, tl := range tls {
		a := tl.attempt()
		if a == nil {
			continue
		}
		shape := tl.o.job.shape
		if byShape[shape] == nil {
			byShape[shape] = map[string]*cell{}
		}
		jobs[shape]++
		var walk func(s *span, path string, depth int)
		walk = func(s *span, path string, depth int) {
			c := byShape[shape][path]
			if c == nil {
				c = &cell{}
				byShape[shape][path] = c
				order[shape] = append(order[shape], path)
			}
			c.dur = append(c.dur, ms(s.dur()))
			c.self = append(c.self, ms(tl.self(s)))
			kids := append([]*span(nil), tl.kids[s.SpanID]...)
			sort.Slice(kids, func(i, j int) bool { return kids[i].start.Before(kids[j].start) })
			for _, k := range kids {
				walk(k, path+"/"+k.Name, depth+1)
			}
		}
		walk(a, "attempt", 0)
	}
	shapes := make([]string, 0, len(byShape))
	for s := range byShape {
		shapes = append(shapes, s)
	}
	sort.Strings(shapes)
	var b strings.Builder
	fmt.Fprintf(&b, "# Self time per job shape: each job's attempt span tree, aggregated by span path.\n")
	fmt.Fprintf(&b, "# dur/self are medians in ms over the spans at that path; self = dur minus what its children cover.\n")
	for _, shape := range shapes {
		fmt.Fprintf(&b, "\n%s (%d jobs)\n", shape, jobs[shape])
		fmt.Fprintf(&b, "  %-64s %6s %10s %10s %7s\n", "path", "spans", "dur_ms", "self_ms", "self%")
		for _, path := range order[shape] {
			c := byShape[shape][path]
			d, s := median(c.dur), median(c.self)
			share := 0.0
			if d > 0 {
				share = 100 * s / d
			}
			indent := strings.Repeat("  ", strings.Count(path, "/"))
			name := path[strings.LastIndexByte(path, '/')+1:]
			fmt.Fprintf(&b, "  %-64s %6d %10.3f %10.3f %6.1f%%\n", indent+name, len(c.dur), d, s, share)
		}
	}
	return b.String()
}
