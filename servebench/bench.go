package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/sinet-io/sinet/internal/service"
	"github.com/sinet-io/sinet/internal/stats"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlCold  = "cold-mix"
	wlHot   = "hot-repeat"
	wlFleet = "sharded-fleet"
)

var workloadNames = []string{wlCold, wlHot, wlFleet}

// hotRate is the hot-repeat open-loop arrival rate: a cache hit costs about
// 1 ms of CPU (client included) on a 2-CPU Xeon host, so 400/s keeps the
// daemon near 20% busy, well under its hit capacity.
const hotRate = 400.0

// setupReps is how many times a run sets its target up; setup_s is the
// median and the last set-up serves the measured window.
const setupReps = 5

// rssJobs is how many completed jobs of a closed-loop window peak_rss_mb
// covers. The server keeps every finished job and caches its result, so
// its memory grows with the jobs done; over a fixed count, a host that
// runs slower for a while does not read as a smaller footprint.
const rssJobs = 130

// loadClients is how many clients drive a workload's measured window.
// cold-mix runs one, so each campaign is timed alone on a server with
// nproc workers: with nproc clients, which campaigns happen to overlap
// changes from run to run, and on a 2-CPU Xeon host its throughput and
// latencies spread about twice as wide between runs.
func loadClients(workload string, nproc int) int {
	if workload == wlCold {
		return 1
	}
	return nproc
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // smoke-test scale: cheap shapes, one set-up, small samples
	outdir   string // span files and self-time tables
	workdir  string // journal directories
	log      io.Writer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// target is a set-up workload: its daemons plus the inputs set-up made.
type target struct {
	*env
	load   *loader
	keys   []*job          // hot-repeat working set
	expect map[*job][]byte // hot-repeat prefill bytes by key
	setup  []outcome       // warm-up and prefill requests
	probe  *probe          // traced run only
	nproc  int
	// setupTL holds the set-up jobs' timelines, fetched before the window
	// can evict them from the daemons' trace rings (traced run only).
	setupTL []*timeline
}

func setUp(opt options, nproc int, p *probe, rec *recorder) (*target, error) {
	e, err := startEnv(opt.workload, nproc, envOptions{workdir: opt.workdir, probe: p})
	if err != nil {
		return nil, err
	}
	t := &target{env: e, load: &loader{c: e.client, base: e.entry.base, rec: rec}, probe: p, nproc: nproc}
	base := seedBase(opt.seed)
	var jobs []*job
	if opt.workload == wlHot {
		for i, sh := range hotKeys(opt.tiny) {
			j, err := makeJob(sh, base, i)
			if err != nil {
				return nil, errors.Join(err, e.close())
			}
			t.keys = append(t.keys, j)
		}
		jobs = t.keys
	} else {
		for k, sh := range warmupShapes(opt.workload, opt.tiny) {
			j, err := makeJob(sh, base, warmupBase+k)
			if err != nil {
				return nil, errors.Join(err, e.close())
			}
			jobs = append(jobs, j)
		}
	}
	keep := *t.load
	keep.keep = true
	t.setup = runAll(&keep, jobs, nproc, nil)
	for _, o := range t.setup {
		if o.err != nil {
			return nil, errors.Join(fmt.Errorf("set-up job %s: %w", o.job.shape, o.err), e.close())
		}
	}
	if opt.workload == wlHot {
		t.expect = map[*job][]byte{}
		for _, o := range t.setup {
			t.expect[o.job] = o.data
		}
		// Warm the hit path: every key served a few times from the cache.
		var hits []*job
		for r := 0; r < 4; r++ {
			hits = append(hits, t.keys...)
		}
		for _, o := range runAll(t.load, hits, nproc, t.expect) {
			if o.err != nil {
				return nil, errors.Join(fmt.Errorf("warm-up hit %s: %w", o.job.shape, o.err), e.close())
			}
		}
	}
	return t, nil
}

// runAll pushes a fixed job list through clients closed-loop clients.
func runAll(l *loader, jobs []*job, clients int, expect map[*job][]byte) []outcome {
	outs := make([]outcome, len(jobs))
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				next.Lock()
				k := i
				i++
				next.Unlock()
				if k >= len(jobs) {
					return
				}
				outs[k] = l.do(jobs[k], time.Now(), expect[jobs[k]], &buf)
			}
		}()
	}
	wg.Wait()
	return outs
}

// pass is one measured window.
type pass struct {
	outs    []outcome // every request issued, late ones included
	samples []outcome // successful requests completed inside the window
	start   time.Time
	window  time.Duration
	lags    []time.Duration
	cpu     float64     // process CPU seconds over the window
	host    *hostSlices // the window cut by how much CPU time the hypervisor took
	peakRSS float64     // MB, over the window or a closed loop's first rssJobs jobs
	before  snapshot
	after   snapshot
	rt      [3]float64 // runtime/metrics deltas: alloc bytes, alloc objects, GC pause s
	// journalWrites and journalSyncs count JournalHook calls (traced run).
	journalWrites, journalSyncs int64
}

func (p *pass) failed() int {
	n := 0
	for _, o := range p.outs {
		if o.err != nil {
			n++
		}
	}
	return n
}

func (p *pass) cpuMsPerJob() float64 {
	return 1000 * p.cpu / math.Max(1, float64(len(p.samples)))
}

// timed returns the samples whose whole request, due time to last byte,
// lies in kept slices: the ones the latency metrics use. When none does,
// it returns every sample.
func (p *pass) timed() []outcome {
	var out []outcome
	for _, o := range p.samples {
		if p.host.keeps(o.due, o.end) {
			out = append(out, o)
		}
	}
	if len(out) == 0 {
		return p.samples
	}
	return out
}

// throughput is the samples completed in kept slices of the window per
// second of kept time.
func (p *pass) throughput() float64 {
	end := p.start.Add(p.window)
	kept := p.host.keptTime(p.start, end)
	if kept <= 0 {
		kept = p.window
	}
	n := 0
	for _, o := range p.samples {
		if !o.end.After(end) && p.host.kept[p.host.index(o.end)] {
			n++
		}
	}
	return float64(n) / kept.Seconds()
}

// measure runs the workload's load for d against t.
func (t *target) measure(opt options, d time.Duration) (*pass, error) {
	p := &pass{window: d}
	var err error
	if p.before, err = t.snapshot(); err != nil {
		return nil, err
	}
	var w0, s0 int64
	if t.probe != nil {
		w0, s0 = t.probe.writes.Load(), t.probe.syncs.Load()
	}
	rt0 := readRuntime()
	// Set-up garbage is collected and returned first, so peak RSS is the
	// window's own.
	runtime.GC()
	debug.FreeOSMemory()
	stopRSS, rss := make(chan struct{}), make(chan []rssSample)
	go watchRSS(stopRSS, rss)
	stopSteal, steal := make(chan struct{}), make(chan []stealSample)
	go watchSteal(stopSteal, steal)
	cpu0 := cpuSeconds()
	switch opt.workload {
	case wlHot:
		plan := hotPlan(t.keys, opt.seed, hotRate, d)
		p.outs, p.lags, p.start = openLoop(t.load, plan, t.expect, t.nproc)
		for _, o := range p.outs {
			if o.err == nil {
				p.samples = append(p.samples, o)
			}
		}
	default:
		cycle := coldMixCycle(opt.tiny)
		if opt.workload == wlFleet {
			cycle = fleetCycle(opt.tiny)
		}
		m := newMix(cycle, opt.seed)
		var deadline time.Time
		p.outs, p.start, deadline = closedLoop(t.load, m.take, loadClients(opt.workload, t.nproc), d)
		if m.err != nil {
			return nil, m.err
		}
		for _, o := range p.outs {
			if o.err == nil && !o.end.After(deadline) {
				p.samples = append(p.samples, o)
			}
		}
	}
	p.cpu = cpuSeconds() - cpu0
	close(stopSteal)
	p.host = cutSlices(<-steal, t.nproc)
	close(stopRSS)
	var until time.Time
	if opt.workload != wlHot && len(p.samples) >= rssJobs {
		ends := make([]time.Time, len(p.samples))
		for i, o := range p.samples {
			ends[i] = o.end
		}
		slices.SortFunc(ends, time.Time.Compare)
		until = ends[rssJobs-1]
	}
	p.peakRSS = peakRSS(<-rss, until)
	rt1 := readRuntime()
	for i := range p.rt {
		p.rt[i] = rt1[i] - rt0[i]
	}
	if t.probe != nil {
		p.journalWrites = t.probe.writes.Load() - w0
		p.journalSyncs = t.probe.syncs.Load() - s0
	}
	if p.after, err = t.snapshot(); err != nil {
		return nil, err
	}
	return p, nil
}

// hotPlan draws the hot-repeat arrivals: Poisson at rate per second over
// d, each request for a key drawn Zipf(s=1) by popularity rank.
func hotPlan(keys []*job, seed int64, rate float64, d time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed ^ 0x484f54))
	cdf := make([]float64, len(keys))
	total := 0.0
	for k := range keys {
		total += 1 / float64(k+1)
		cdf[k] = total
	}
	var plan []arrival
	at := 0.0
	for {
		at += rng.ExpFloat64() / rate
		if at >= d.Seconds() {
			return plan
		}
		u := rng.Float64() * total
		k := sort.SearchFloat64s(cdf, u)
		plan = append(plan, arrival{job: keys[min(k, len(keys)-1)], at: time.Duration(at * float64(time.Second))})
	}
}

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/sched/pauses/total/gc:seconds"}

// readRuntime reads allocated bytes, allocated objects and total GC pause
// seconds (bucket midpoints of the pause histogram).
func readRuntime() [3]float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var out [3]float64
	for i := 0; i < 2; i++ {
		if s[i].Value.Kind() == metrics.KindUint64 {
			out[i] = float64(s[i].Value.Uint64())
		}
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		for i, c := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = hi
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			out[2] += float64(c) * (lo + hi) / 2
		}
	}
	return out
}

// verify recomputes a seeded sample of served results directly with
// service.Run and MarshalResult, untimed, and counts mismatches. For
// hot-repeat the sample is drawn from the prefilled keys (every window
// response was already compared with its key's prefill bytes); sharded
// results are compared with the unsharded direct run.
func (t *target) verify(opt options, p *pass) (checked, bad int, err error) {
	type claim struct {
		job *job
		sum [sha256.Size]byte
	}
	var pool []claim
	if opt.workload == wlHot {
		for _, j := range t.keys {
			pool = append(pool, claim{j, sha256.Sum256(t.expect[j])})
		}
	} else {
		for _, o := range p.outs {
			if o.err == nil {
				pool = append(pool, claim{o.job, o.sum})
			}
		}
	}
	want := 8
	if opt.tiny {
		want = 2
	}
	// One claim per shape first, shapes in seeded order, then any others.
	rng := rand.New(rand.NewSource(opt.seed ^ 0x766572))
	rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
	seen := map[string]bool{}
	picked := make([]bool, len(pool))
	var sample []claim
	for i, c := range pool {
		if len(sample) < want && !seen[c.job.shape] {
			seen[c.job.shape] = true
			picked[i] = true
			sample = append(sample, c)
		}
	}
	for i, c := range pool {
		if len(sample) < want && !picked[i] {
			sample = append(sample, c)
		}
	}
	for _, c := range sample {
		spec, err := c.job.spec()
		if err != nil {
			return checked, bad, err
		}
		if err := spec.Normalize(); err != nil {
			return checked, bad, fmt.Errorf("%s: %w", c.job.shape, err)
		}
		res, err := service.Run(context.Background(), spec, service.RunContext{})
		if err != nil {
			return checked, bad, fmt.Errorf("direct run of %s: %w", c.job.shape, err)
		}
		data, err := service.MarshalResult(res)
		if err != nil {
			return checked, bad, fmt.Errorf("marshal %s: %w", c.job.shape, err)
		}
		checked++
		if sha256.Sum256(data) != c.sum {
			bad++
			fmt.Fprintf(opt.log, "MISMATCH %s job %d: served bytes differ from the direct run\n", c.job.shape, c.job.index)
		}
	}
	return checked, bad, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Median(xs)
}

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, p)
}

// latencyPercentiles returns the given latency percentiles of samples.
// A run with enough samples is split in due-time order into up to eight
// groups of at least 1000 samples (so p99 keeps ten beyond it in each),
// and each percentile is the median of the groups' values: a stall in a
// few of them then cannot move a run's tail. It also returns the number of
// groups used.
func latencyPercentiles(samples []outcome, ps []float64) ([]float64, int) {
	k := max(1, min(8, len(samples)/1000))
	byDue := slices.Clone(samples)
	slices.SortStableFunc(byDue, func(a, b outcome) int { return a.due.Compare(b.due) })
	groups := make([][]float64, k)
	for i, o := range byDue {
		g := i * k / len(byDue)
		groups[g] = append(groups[g], ms(o.latency()))
	}
	out := make([]float64, len(ps))
	for j, p := range ps {
		per := make([]float64, k)
		for i, g := range groups {
			per[i] = percentile(g, p)
		}
		out[j] = median(per)
	}
	return out, k
}

// tailPercentile is the highest of p50/p90/p95/p99/p99.9 with at least
// ten samples beyond it.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 95, 99, 99.9} {
		if float64(n)*(1-p/100) >= 10 {
			best = p
		}
	}
	return best
}

// run executes one benchmark invocation: set-up, the measured window(s),
// verification, and the metrics of the requested kind.
func run(opt options) (result, error) {
	nproc := runtime.NumCPU()
	info := captureEnv(opt.workdir)
	info.Workload, info.Seed, info.Seconds, info.Traced = opt.workload, opt.seed, opt.seconds, opt.trace
	info.Clients = loadClients(opt.workload, nproc)
	if opt.workload == wlHot {
		info.Loop, info.RatePerS = "open (Poisson)", hotRate
	} else {
		info.Loop = "closed"
	}
	logJSON(opt.log, "env", info)
	d := time.Duration(opt.seconds * float64(time.Second))
	res := result{Correct: true, Metrics: map[string]metric{}}
	note := func(p *pass, checked, bad int) {
		res.Attempted += len(p.outs)
		res.Failed += p.failed() + bad
		if p.failed()+bad > 0 {
			res.Correct = false
		}
		for _, o := range p.outs {
			if o.err != nil {
				fmt.Fprintf(opt.log, "FAILED %s job %d: %v\n", o.job.shape, o.job.index, o.err)
				break
			}
		}
		fmt.Fprintf(opt.log, "verified %d results directly, %d mismatched\n", checked, bad)
	}

	if !opt.trace {
		reps := setupReps
		if opt.tiny {
			reps = 1
		}
		var setups []float64
		var t *target
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			var err error
			if t, err = setUp(opt, nproc, nil, nil); err != nil {
				return res, err
			}
			setups = append(setups, time.Since(t0).Seconds())
			if r < reps-1 {
				if err := t.close(); err != nil {
					return res, err
				}
			}
		}
		p, err := t.measure(opt, d)
		if err != nil {
			return res, errors.Join(err, t.close())
		}
		checked, bad, err := t.verify(opt, p)
		if err := errors.Join(err, t.close()); err != nil {
			return res, err
		}
		note(p, checked, bad)
		n := len(p.samples)
		timed := p.timed()
		lat, windows := latencyPercentiles(timed, []float64{50, 90, 99})
		res.Metrics["throughput_jobs_s"] = metric{p.throughput(), "1/s"}
		res.Metrics["latency_p50_ms"] = metric{lat[0], "ms"}
		res.Metrics["latency_p90_ms"] = metric{lat[1], "ms"}
		res.Metrics["latency_p99_ms"] = metric{lat[2], "ms"}
		res.Metrics["cpu_ms_per_job"] = metric{p.cpuMsPerJob(), "ms"}
		res.Metrics["peak_rss_mb"] = metric{p.peakRSS, "MB"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		fmt.Fprintf(opt.log, "%s: %s loop, %d clients, %d samples in %.1fs (%d attempted); timings from %d samples in %d of %d one-second slices (in each of the others the hypervisor took more than %g ms of CPU time; share of the CPUs' time it took per slice: %.3f) over %d group(s); highest percentile with >=10 samples beyond it per group: p%g; set-ups took %v s\n",
			opt.workload, info.Loop, info.Clients, n, p.window.Seconds(), len(p.outs), len(timed), p.host.keptCount(), len(p.host.kept),
			1000*maxSliceSteal, p.host.share, windows, tailPercentile(len(timed)/windows), setups)
		if n == 0 {
			res.Correct = false
		}
		return res, nil
	}

	// Traced run: an untraced pass and a traced pass of half the time each
	// over identical inputs; their CPU per job gives the tracing overhead.
	t, err := setUp(opt, nproc, nil, nil)
	if err != nil {
		return res, err
	}
	p0, err := t.measure(opt, d/2)
	if err != nil {
		return res, errors.Join(err, t.close())
	}
	checked, bad, err := t.verify(opt, p0)
	if err := errors.Join(err, t.close()); err != nil {
		return res, err
	}
	note(p0, checked, bad)

	pr, rec := &probe{}, newRecorder()
	if t, err = setUp(opt, nproc, pr, rec); err != nil {
		return res, err
	}
	if t.setupTL, err = t.fetchTimelines(okOutcomes(t.setup), rec); err != nil {
		return res, errors.Join(err, t.close())
	}
	p1, err := t.measure(opt, d/2)
	if err != nil {
		return res, errors.Join(err, t.close())
	}
	lm, err := t.layers(opt, p1, pr, rec)
	if err != nil {
		return res, errors.Join(err, t.close())
	}
	checked, bad, err = t.verify(opt, p1)
	if err := errors.Join(err, t.close()); err != nil {
		return res, err
	}
	note(p1, checked, bad)
	lm["bench.trace_overhead_pct"] = metric{100 * (p1.cpuMsPerJob()/math.Max(p0.cpuMsPerJob(), 1e-9) - 1), "%"}
	lm["bench.error_ratio"] = metric{float64(res.Failed) / math.Max(1, float64(res.Attempted)), "ratio"}
	res.Metrics = lm
	if len(p0.samples) == 0 || len(p1.samples) == 0 {
		res.Correct = false
	}
	return res, nil
}
