package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/constellation"
	"github.com/sinet-io/sinet/internal/obs"
	"github.com/sinet-io/sinet/internal/orbit"
)

var memoStart = time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)

func fossaProps(t *testing.T) []*orbit.Propagator {
	t.Helper()
	props, err := constellation.FOSSA(memoStart).Propagators()
	if err != nil {
		t.Fatal(err)
	}
	return props
}

// memoGrid runs the ephemeris phase for one FOSSA grid over a day from
// start.
func memoGrid(t *testing.T, ctx context.Context, m *Memo, start time.Time) (*orbit.EphemerisGrid, error) {
	t.Helper()
	return memoGridSpan(t, ctx, m, start, 24*time.Hour)
}

func memoGridSpan(t *testing.T, ctx context.Context, m *Memo, start time.Time, span time.Duration) (*orbit.EphemerisGrid, error) {
	t.Helper()
	grids, err := propagate(ctx, RunContext{Memo: m}, start, start.Add(span), orbit.EphemerisConfig{ScanStep: time.Minute}, fossaProps(t))
	if err != nil {
		return nil, err
	}
	return grids[0], nil
}

// TestMemoKeyCoversEveryGridInput guards the grid key's explicit field
// list: a field added to orbit.Elements or orbit.EphemerisConfig is a grid
// input the key must encode before this count moves.
func TestMemoKeyCoversEveryGridInput(t *testing.T) {
	if n := reflect.TypeOf(orbit.Elements{}).NumField(); n != 10 {
		t.Errorf("orbit.Elements has %d fields; keyInputs.grid encodes 10", n)
	}
	if n := reflect.TypeOf(orbit.EphemerisConfig{}).NumField(); n != 4 {
		t.Errorf("orbit.EphemerisConfig has %d fields; keyInputs.grid encodes 4", n)
	}
	props := fossaProps(t)
	cfg := orbit.EphemerisConfig{ScanStep: time.Minute}
	base, ok := gridKey(props, memoStart, memoStart.Add(time.Hour), cfg)
	if !ok {
		t.Fatal("UTC inputs are unkeyable")
	}
	els := props[1].Elements()
	changed := map[string]func(*orbit.Elements){
		"NoradID":      func(e *orbit.Elements) { e.NoradID++ },
		"Name":         func(e *orbit.Elements) { e.Name += "x" },
		"Epoch":        func(e *orbit.Elements) { e.Epoch = e.Epoch.Add(time.Nanosecond) },
		"BStar":        func(e *orbit.Elements) { e.BStar = -e.BStar },
		"Inclination":  func(e *orbit.Elements) { e.Inclination += 1e-12 },
		"RAAN":         func(e *orbit.Elements) { e.RAAN += 1e-12 },
		"Eccentricity": func(e *orbit.Elements) { e.Eccentricity += 1e-12 },
		"ArgPerigee":   func(e *orbit.Elements) { e.ArgPerigee += 1e-12 },
		"MeanAnomaly":  func(e *orbit.Elements) { e.MeanAnomaly += 1e-12 },
		"MeanMotion":   func(e *orbit.Elements) { e.MeanMotion += 1e-12 },
	}
	for name, change := range changed {
		e := els
		change(&e)
		p, err := orbit.NewPropagator(e)
		if err != nil {
			t.Fatal(err)
		}
		alt := append([]*orbit.Propagator(nil), props...)
		alt[1] = p
		if k, _ := gridKey(alt, memoStart, memoStart.Add(time.Hour), cfg); k == base {
			t.Errorf("changing Elements.%s leaves the grid key unchanged", name)
		}
	}
	configs := map[string]orbit.EphemerisConfig{
		"ScanStep":         {ScanStep: 2 * time.Minute},
		"SampleStep":       {ScanStep: time.Minute, SampleStep: time.Minute},
		"MaxInterpErrorKm": {ScanStep: time.Minute, MaxInterpErrorKm: 0.01},
		"Exact":            {ScanStep: time.Minute, Exact: true},
	}
	for name, c := range configs {
		if k, _ := gridKey(props, memoStart, memoStart.Add(time.Hour), c); k == base {
			t.Errorf("changing EphemerisConfig.%s leaves the grid key unchanged", name)
		}
	}
	for name, span := range map[string][2]time.Time{
		"start": {memoStart.Add(time.Nanosecond), memoStart.Add(time.Hour)},
		"end":   {memoStart, memoStart.Add(time.Hour + time.Nanosecond)},
	} {
		if k, _ := gridKey(props, span[0], span[1], cfg); k == base {
			t.Errorf("changing the %s leaves the grid key unchanged", name)
		}
	}
	// Years 0 and 9999 fall outside UnixNano's range; they must key apart.
	y0, _ := gridKey(props, time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC), memoStart, cfg)
	y9999, _ := gridKey(props, time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC), memoStart, cfg)
	if y0 == y9999 || y0 == base {
		t.Error("start years 0 and 9999 do not key apart")
	}
	if _, ok := gridKey(props, memoStart.In(time.FixedZone("", 3600)), memoStart.Add(time.Hour), cfg); ok {
		t.Error("a start outside UTC is keyable; its zone reaches result bytes")
	}
}

// TestMemoServesTheGridItFiled pins the hit path: the same inputs return
// the filed grid itself, other inputs miss.
func TestMemoServesTheGridItFiled(t *testing.T) {
	reg := obs.New()
	m := NewMemo(64<<20, reg)
	ctx := context.Background()
	first, err := memoGrid(t, ctx, m, memoStart)
	if err != nil {
		t.Fatal(err)
	}
	again, err := memoGrid(t, ctx, m, memoStart)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatal("same inputs propagated a new grid instead of the filed one")
	}
	other, err := memoGrid(t, ctx, m, memoStart.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if other == first {
		t.Fatal("a grid of another start was served from the memo")
	}
	if h, mi := m.hits[kindGrid].Value(), m.misses[kindGrid].Value(); h != 1 || mi != 2 {
		t.Fatalf("grid hits/misses = %d/%d, want 1/2", h, mi)
	}
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if want := "sinet_memo_bytes " + strconv.FormatFloat(float64(first.Bytes()+other.Bytes()), 'g', -1, 64); !strings.Contains(out.String(), want) {
		t.Fatalf("scrape lacks %q:\n%s", want, out.String())
	}
}

// TestMemoCanceledPropagationFilesNothing pins that a grid enters the memo
// only after its ephemeris phase returned nil.
func TestMemoCanceledPropagationFilesNothing(t *testing.T) {
	m := NewMemo(64<<20, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := memoGrid(t, ctx, m, memoStart); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled propagation returned %v, want context.Canceled", err)
	}
	if n := m.lru.Len(); n != 0 {
		t.Fatalf("canceled propagation filed %d entries", n)
	}
	// A canceled active campaign files no plan either.
	_, err := RunActiveCtx(ctx, ActiveConfig{Seed: 1, Start: memoStart, Days: 1,
		Constellation: ptr(constellation.FOSSA(memoStart)), RunContext: RunContext{Memo: m}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled campaign returned %v, want context.Canceled", err)
	}
	if n := m.lru.Len(); n != 0 {
		t.Fatalf("canceled campaign filed %d entries", n)
	}
}

func ptr[T any](v T) *T { return &v }

// TestMemoRejectsAnEntryLargerThanTheBudget: a grid that alone exceeds
// the budget is recomputed every time rather than evicting everything
// else for itself.
func TestMemoRejectsAnEntryLargerThanTheBudget(t *testing.T) {
	ctx := context.Background()
	probe, err := memoGrid(t, ctx, nil, memoStart)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMemo(probe.Bytes()-1, nil)
	small, err := memoGridSpan(t, ctx, m, memoStart, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		big, err := memoGrid(t, ctx, m, memoStart)
		if err != nil {
			t.Fatal(err)
		}
		if big == probe || m.lru.Len() != 1 || m.lru.Bytes() != small.Bytes() {
			t.Fatalf("oversized grid stored: %d entries, %d bytes", m.lru.Len(), m.lru.Bytes())
		}
	}
	if got, _ := memoGridSpan(t, ctx, m, memoStart, time.Hour); got != small {
		t.Fatal("filing an oversized grid evicted the small one")
	}
}

// TestMemoEvictsLeastRecentlyUsed: with room for two grids, filing a
// third evicts the one looked up least recently.
func TestMemoEvictsLeastRecentlyUsed(t *testing.T) {
	ctx := context.Background()
	probe, err := memoGrid(t, ctx, nil, memoStart)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	m := NewMemo(probe.Bytes()*5/2, reg)
	a, _ := memoGrid(t, ctx, m, memoStart)
	b, _ := memoGrid(t, ctx, m, memoStart.Add(time.Minute))
	if got, _ := memoGrid(t, ctx, m, memoStart); got != a { // a is now the most recently used
		t.Fatal("a missed before any eviction")
	}
	if _, err := memoGrid(t, ctx, m, memoStart.Add(2*time.Minute)); err != nil {
		t.Fatal(err)
	}
	if got, _ := memoGrid(t, ctx, m, memoStart); got != a {
		t.Fatal("recently used grid a was evicted")
	}
	if got, _ := memoGrid(t, ctx, m, memoStart.Add(time.Minute)); got == b {
		t.Fatal("least recently used grid b survived the third filing")
	}
	if n := m.evictions.Value(); n < 1 {
		t.Fatalf("evictions = %d, want at least 1", n)
	}
}

// TestMemoPlanHitRestoresTheComputedValues: a plan hit puts the values
// the miss computed into their slots, shared, not copied or decoded, and
// counts them restored; a unit the entry lacks stays to compute.
func TestMemoPlanHitRestoresTheComputedValues(t *testing.T) {
	rc := RunContext{Memo: NewMemo(64<<20, nil)}
	in := newKeyInputs(kindPlan)
	run := func(rc RunContext, plans []satPlan) (computed []bool) {
		t.Helper()
		computed = make([]bool, len(plans))
		err := forEachCheckpointed(context.Background(), rc, "plan", plans, in, nil, func(i int) (satPlan, error) {
			computed[i] = true
			return satPlan{Drains: []time.Time{memoStart}}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return computed
	}
	plans := make([]satPlan, 2)
	cold := rc
	cold.Shard = &ShardWindow{Lo: 0, Hi: 1}
	if c := run(cold, plans); !c[0] || c[1] {
		t.Fatalf("a cold memo computed %v, want only the window's unit 0", c)
	}

	again := make([]satPlan, 2)
	if c := run(rc, again); c[0] || !c[1] {
		t.Fatalf("computed = %v, want only unit 1, which the entry lacks", c)
	}
	if &again[0].Drains[0] != &plans[0].Drains[0] {
		t.Fatal("a hit restored a copy, not the values the miss computed")
	}
}

// TestMemoPlanHitIsARestoredUnit: an active campaign hitting its plan in
// the memo reports every plan unit restored up front and hands none to
// Checkpoint, as a resumed run would.
func TestMemoPlanHitIsARestoredUnit(t *testing.T) {
	m := NewMemo(64<<20, nil)
	run := func() (first [2]int, saved int) {
		cfg := ActiveConfig{Seed: 1, Start: memoStart, Days: 1, Constellation: ptr(constellation.FOSSA(memoStart))}
		cfg.Memo = m
		cfg.Progress = func(phase string, completed, total int) {
			if phase == "plan" && first[1] == 0 {
				first = [2]int{completed, total}
			}
		}
		cfg.Checkpoint = func(string, int, int, []byte) { saved++ }
		if _, err := RunActiveCtx(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		return first, saved
	}
	miss, missSaved := run()
	if miss[0] != 1 || missSaved != miss[1] {
		t.Fatalf("miss: first plan report %v and %d saved units, want 1 of n and n saved", miss, missSaved)
	}
	hit, hitSaved := run()
	if hit[0] != hit[1] || hitSaved != 0 {
		t.Fatalf("hit: first plan report %v and %d saved units, want n of n and none saved", hit, hitSaved)
	}
}

// TestMemoMergeFilesItsRestoredPlans: a merge run, which restores every
// plan unit from its resume point and computes none, files them, so the
// next run of the geometry, with another seed and no resume point,
// restores every plan unit from the memo: its first plan report is n of
// n, it hands no unit to Checkpoint, and it serves the memo-free bytes.
func TestMemoMergeFilesItsRestoredPlans(t *testing.T) {
	ctx := context.Background()
	cfg := ActiveConfig{Seed: 1, Start: memoStart, Days: 1, Constellation: ptr(constellation.FOSSA(memoStart))}
	cp, save := captureCheckpoint()
	direct := cfg
	direct.Checkpoint = save
	if _, err := RunActiveCtx(ctx, direct); err != nil {
		t.Fatal(err)
	}
	m := NewMemo(64<<20, nil)
	merge := cfg
	merge.Resume, merge.Memo = cp, m
	merge.Checkpoint = func(phase string, index, _ int, _ []byte) {
		t.Errorf("merge computed %s unit %d", phase, index)
	}
	if _, err := RunActiveCtx(ctx, merge); err != nil {
		t.Fatal(err)
	}

	next := cfg
	next.Seed = 2
	plain, err := RunActiveCtx(ctx, next)
	if err != nil {
		t.Fatal(err)
	}
	var first [2]int
	saved := 0
	next.Memo = m
	next.Progress = func(phase string, completed, total int) {
		if phase == "plan" && first[1] == 0 {
			first = [2]int{completed, total}
		}
	}
	next.Checkpoint = func(string, int, int, []byte) { saved++ }
	got, err := RunActiveCtx(ctx, next)
	if err != nil {
		t.Fatal(err)
	}
	if first[0] == 0 || first[0] != first[1] || saved != 0 {
		t.Fatalf("run after the merge: first plan report %v and %d saved units, want n of n and none saved", first, saved)
	}
	if string(mustJSON(t, got)) != string(mustJSON(t, plain)) {
		t.Fatal("bytes through the memo a merge filed differ from a memo-free run")
	}
}

// TestMemoPlanEntrySizeDecodedOrComputed: an entry filed from decoded
// plans, whose beacons have no flat array, counts the bytes of one filed
// from the computed plans.
func TestMemoPlanEntrySizeDecodedOrComputed(t *testing.T) {
	ctx := context.Background()
	cfg := ActiveConfig{Seed: 1, Start: memoStart, Days: 1, Constellation: ptr(constellation.FOSSA(memoStart))}
	computed, decoded := NewMemo(64<<20, nil), NewMemo(64<<20, nil)
	cp, save := captureCheckpoint()
	c := cfg
	c.Memo, c.Checkpoint = computed, save
	if _, err := RunActiveCtx(ctx, c); err != nil {
		t.Fatal(err)
	}
	d := cfg
	d.Memo, d.Resume = decoded, cp
	if _, err := RunActiveCtx(ctx, d); err != nil {
		t.Fatal(err)
	}
	if computed.lru.Len() != 2 || decoded.lru.Len() != 2 {
		t.Fatalf("memo entries = %d computed, %d decoded; want a grid and a plan each", computed.lru.Len(), decoded.lru.Len())
	}
	if c, d := computed.lru.Bytes(), decoded.lru.Bytes(); c != d {
		t.Fatalf("memo bytes = %d from computed plans, %d from decoded ones", c, d)
	}
}

// fossaRouting is a fault-free one-day routing campaign over FOSSA.
func fossaRouting(seed int64) RoutingConfig {
	return RoutingConfig{Seed: seed, Start: memoStart, Days: 1, Constellation: ptr(constellation.FOSSA(memoStart))}
}

// watchTopology sets cfg's Progress to note whether the run reports
// topology progress, that is whether it builds the topology.
func watchTopology(cfg *RoutingConfig) *bool {
	built := new(bool)
	cfg.Progress = func(phase string, _, _ int) {
		if phase == "topology" {
			*built = true
		}
	}
	return built
}

func routingBytes(t *testing.T, cfg RoutingConfig) []byte {
	t.Helper()
	res, err := RunRoutingCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mustJSON(t, res)
}

// TestMemoRoutingHitBuildsNoTopology: a fault-free routing run through a
// memo another seed's run warmed finds its topology summary and every
// packet unit there, so it builds no topology, and it serves the bytes of
// a memo-free run.
func TestMemoRoutingHitBuildsNoTopology(t *testing.T) {
	m := NewMemo(64<<20, nil)
	warm := fossaRouting(1)
	warm.Memo = m
	builtCold := watchTopology(&warm)
	routingBytes(t, warm)
	if !*builtCold {
		t.Fatal("a run through a cold memo built no topology")
	}
	want := routingBytes(t, fossaRouting(2))
	cfg := fossaRouting(2)
	cfg.Memo = m
	built := watchTopology(&cfg)
	if got := routingBytes(t, cfg); !bytes.Equal(got, want) {
		t.Fatal("bytes through the warmed memo differ from a memo-free run")
	}
	if *built {
		t.Fatal("a run through a memo warmed by another seed built its topology")
	}
}

// TestMemoRoutingShardHeldBuildsNoTopology: a shard run whose window the
// memo holds builds no topology, and it hands Checkpoint the units a
// memo-free shard run computes.
func TestMemoRoutingShardHeldBuildsNoTopology(t *testing.T) {
	m := NewMemo(64<<20, nil)
	warm := fossaRouting(1)
	warm.Memo = m
	routingBytes(t, warm)
	shard := func(memo *Memo) (*Checkpoint, bool) {
		cp, save := captureCheckpoint()
		cfg := fossaRouting(2)
		cfg.Memo, cfg.Checkpoint, cfg.Shard = memo, save, &ShardWindow{Lo: 0, Hi: 2}
		built := watchTopology(&cfg)
		routingBytes(t, cfg)
		return cp, *built
	}
	want, builtCold := shard(nil)
	if !builtCold {
		t.Fatal("a memo-free relay shard built no topology")
	}
	got, built := shard(m)
	if built {
		t.Fatal("a shard run whose window the memo holds built its topology")
	}
	if got.Len() != 2 || !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
		t.Fatalf("shard through the memo saved %d units differing from a memo-free shard's %d", got.Len(), want.Len())
	}
}

// TestMemoSecondRoutingMergeBuildsNoTopology: a merge restores every
// packet unit from its resume point, so once the first merge of a
// geometry filed its summary and units, the next merge of that geometry
// builds no topology.
func TestMemoSecondRoutingMergeBuildsNoTopology(t *testing.T) {
	m := NewMemo(64<<20, nil)
	merge := func(seed int64) bool {
		cp, save := captureCheckpoint()
		direct := fossaRouting(seed)
		direct.Checkpoint = save
		want := routingBytes(t, direct)
		cfg := fossaRouting(seed)
		cfg.Memo, cfg.Resume = m, cp
		built := watchTopology(&cfg)
		if got := routingBytes(t, cfg); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: merged bytes differ from a direct run", seed)
		}
		return *built
	}
	if !merge(1) {
		t.Fatal("the first merge of a geometry built no topology")
	}
	if merge(2) {
		t.Fatal("the second merge of a geometry built its topology")
	}
}
