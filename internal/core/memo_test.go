package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
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
// the filed grid itself, other inputs miss. The two grid misses propagate
// two trajectories (FOSSA's element sets are epoched at memoStart, so the
// starts sit 0 and 1 min past the epoch), and each files its grid and its
// trajectory's note.
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
	if h, mi := m.hits[kindOrbit].Value(), m.misses[kindOrbit].Value(); h != 0 || mi != 2 {
		t.Fatalf("orbit hits/misses = %d/%d, want 0/2", h, mi)
	}
	if n := m.lru.Len(); n != 4 {
		t.Fatalf("memo entries = %d, want two grids and two notes", n)
	}
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if want := "sinet_memo_bytes " + strconv.FormatFloat(float64(first.Bytes()+other.Bytes()+2*orbitNoteBytes), 'g', -1, 64); !strings.Contains(out.String(), want) {
		t.Fatalf("scrape lacks %q:\n%s", want, out.String())
	}
}

// TestMemoCanceledPropagationFilesNothing pins that a grid, and its
// trajectory's note, enter the memo only after their ephemeris phase
// returned nil.
func TestMemoCanceledPropagationFilesNothing(t *testing.T) {
	m := NewMemo(64<<20, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := memoGrid(t, ctx, m, memoStart); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled propagation returned %v, want context.Canceled", err)
	}
	if n := m.lru.Len(); n != 0 {
		t.Fatalf("canceled propagation filed %d entries, grid or note", n)
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
// else for itself, and so are its trajectory's samples, as large as the
// grid: its note stays. The memo ends with the small grid, the small
// grid's note and the big grid's note.
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
		if big == probe || m.lru.Len() != 3 || m.lru.Bytes() != small.Bytes()+2*orbitNoteBytes {
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

// TestMemoPlanHitRestoresTheComputedValues: a full plan hit puts the
// values a full miss computed into their slots, shared, not copied or
// decoded, and computes no unit.
func TestMemoPlanHitRestoresTheComputedValues(t *testing.T) {
	rc := RunContext{Memo: NewMemo(64<<20, nil)}
	run := func(plans []satPlan) (computed []bool) {
		t.Helper()
		computed = make([]bool, len(plans))
		err := forEachCheckpointed(context.Background(), rc, "plan", plans, newKeyInputs(kindPlan), nil, func(i int) (satPlan, error) {
			computed[i] = true
			return satPlan{Drains: []time.Time{memoStart}}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return computed
	}
	plans := make([]satPlan, 2)
	if c := run(plans); !c[0] || !c[1] {
		t.Fatalf("a cold memo computed %v, want every unit", c)
	}
	again := make([]satPlan, 2)
	if c := run(again); c[0] || c[1] {
		t.Fatalf("a hit computed %v, want no unit", c)
	}
	for i := range again {
		if &again[i].Drains[0] != &plans[i].Drains[0] {
			t.Fatalf("a hit restored a copy of unit %d, not the values the miss computed", i)
		}
	}
}

// countedUnit is a unit that counts its serializations.
type countedUnit struct {
	V        int
	marshals *atomic.Int64
}

func (u countedUnit) MarshalJSON() ([]byte, error) {
	u.marshals.Add(1)
	return strconv.AppendInt(nil, int64(u.V), 10), nil
}

// TestMemoSerializesOnlyForAReaderOfBytes: a computed unit is serialized
// only when something reads its bytes. A keyed full run serializes none
// without a Checkpoint hook and each unit once with one; a keyed shard
// run serializes each window unit once, for its entry, hook or not. Every
// run files its window, and a hit serializes nothing: a shard hit hands
// the hook the held bytes.
func TestMemoSerializesOnlyForAReaderOfBytes(t *testing.T) {
	var marshals atomic.Int64
	var saved [][]byte
	save := func(_ string, _, _ int, unit []byte) { saved = append(saved, unit) }
	half := &ShardWindow{Lo: 1, Hi: 3}
	for _, tc := range []struct {
		name string
		rc   RunContext
		want int64
	}{
		{"full", RunContext{}, 0},
		{"full with a hook", RunContext{Checkpoint: save}, 4},
		{"shard", RunContext{Shard: half}, 2},
		{"shard with a hook", RunContext{Checkpoint: save, Shard: half}, 2},
	} {
		tc.rc.Memo = NewMemo(64<<20, nil)
		for _, pass := range []struct {
			name string
			want int64
		}{{"miss", tc.want}, {"hit", 0}} {
			marshals.Store(0)
			saved = nil
			units := make([]countedUnit, 4)
			err := forEachCheckpointed(context.Background(), tc.rc, "plan", units, newKeyInputs(kindPlan), nil, func(i int) (countedUnit, error) {
				return countedUnit{V: i, marshals: &marshals}, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := marshals.Load(); got != pass.want {
				t.Errorf("%s, %s: %d units serialized, want %d", tc.name, pass.name, got, pass.want)
			}
			if tc.rc.Memo.lru.Len() != 1 {
				t.Errorf("%s, %s: memo holds %d entries, want the run's window", tc.name, pass.name, tc.rc.Memo.lru.Len())
			}
			if tc.rc.Checkpoint != nil && tc.rc.Shard != nil && !reflect.DeepEqual(saved, [][]byte{[]byte("1"), []byte("2")}) {
				t.Errorf("%s, %s: the hook got %q, want the window's units 1 and 2", tc.name, pass.name, saved)
			}
		}
	}
}

// TestMemoWindowsKeyApart: each entry holds one window. A full phase's
// entry serves no shard window, a shard window's entry serves no full run
// and no other window: each misses and computes its units, and only a
// repeat of a window hits.
func TestMemoWindowsKeyApart(t *testing.T) {
	m := NewMemo(64<<20, obs.New())
	run := func(shard *ShardWindow) int64 {
		t.Helper()
		var computed atomic.Int64
		plans := make([]satPlan, 4)
		err := forEachCheckpointed(context.Background(), RunContext{Memo: m, Shard: shard}, "plan", plans, newKeyInputs(kindPlan), nil, func(i int) (satPlan, error) {
			computed.Add(1)
			return satPlan{Drains: []time.Time{memoStart}}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return computed.Load()
	}
	for _, step := range []struct {
		name  string
		shard *ShardWindow
		want  int64
	}{
		{"full", nil, 4},
		{"shard [0,4) after the full entry", &ShardWindow{Lo: 0, Hi: 4}, 4},
		{"shard [0,2)", &ShardWindow{Lo: 0, Hi: 2}, 2},
		{"shard [2,4)", &ShardWindow{Lo: 2, Hi: 4}, 2},
		{"shard [0,4) again", &ShardWindow{Lo: 0, Hi: 4}, 0},
		{"full again", nil, 0},
	} {
		if got := run(step.shard); got != step.want {
			t.Errorf("%s: computed %d units, want %d", step.name, got, step.want)
		}
	}
	if h, mi := m.hits[kindPlan].Value(), m.misses[kindPlan].Value(); h != 2 || mi != 4 {
		t.Errorf("plan hits/misses = %d/%d, want 2/4", h, mi)
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
	if computed.lru.Len() != 3 || decoded.lru.Len() != 3 {
		t.Fatalf("memo entries = %d computed, %d decoded; want a grid, its trajectory's note and a plan each", computed.lru.Len(), decoded.lru.Len())
	}
	if c, d := computed.lru.Bytes(), decoded.lru.Bytes(); c != d {
		t.Fatalf("memo bytes = %d from computed plans, %d from decoded ones", c, d)
	}
}

// TestMemoPacketsEntryCountsItsValues: a full packets entry counts
// exactly what its values hold, Σ valueBytes over its units, and none of
// the units' JSON. The units are a FOSSA routing run's, relay paths
// included.
func TestMemoPacketsEntryCountsItsValues(t *testing.T) {
	cp, save := captureCheckpoint()
	cfg := fossaRouting(1)
	cfg.Checkpoint = save
	routingBytes(t, cfg)
	ps := cp.Phases["packets"]
	units := make([]satPackets, ps.Total)
	var want, hops int64
	for i := range units {
		if err := json.Unmarshal(ps.Units[i], &units[i]); err != nil {
			t.Fatal(err)
		}
		want += units[i].valueBytes()
		for _, p := range units[i] {
			hops += int64(len(p.RelayPath))
		}
	}
	if hops == 0 {
		t.Fatal("no packet has a relay path")
	}
	m := NewMemo(64<<20, nil)
	out := make([]satPackets, len(units))
	err := forEachCheckpointed(context.Background(), RunContext{Memo: m}, "packets", out, newKeyInputs(kindPackets), nil, func(i int) (satPackets, error) {
		return units[i], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.lru.Len() != 1 || m.lru.Bytes() != want {
		t.Fatalf("memo holds %d entries of %d bytes, want one of Σ valueBytes = %d", m.lru.Len(), m.lru.Bytes(), want)
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

// TestMemoRoutingShardHeldBuildsNoTopology: a shard run whose window a
// shard of another seed filed builds no topology, and it hands Checkpoint
// the units a memo-free shard run computes.
func TestMemoRoutingShardHeldBuildsNoTopology(t *testing.T) {
	shard := func(seed int64, memo *Memo) (*Checkpoint, bool) {
		cp, save := captureCheckpoint()
		cfg := fossaRouting(seed)
		cfg.Memo, cfg.Checkpoint, cfg.Shard = memo, save, &ShardWindow{Lo: 0, Hi: 2}
		built := watchTopology(&cfg)
		routingBytes(t, cfg)
		return cp, *built
	}
	m := NewMemo(64<<20, nil)
	shard(1, m)
	want, builtCold := shard(2, nil)
	if !builtCold {
		t.Fatal("a memo-free relay shard built no topology")
	}
	got, built := shard(2, m)
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

// fossaAt returns FOSSA's propagators with the element sets epoched at
// start, as the serving layer builds every fleet, plus, with decaying, a
// satellite that decays 324 minutes past start.
func fossaAt(t *testing.T, start time.Time, decaying bool) []*orbit.Propagator {
	t.Helper()
	props, err := constellation.FOSSA(start).Propagators()
	if err != nil {
		t.Fatal(err)
	}
	if decaying {
		e := props[0].Elements()
		e.NoradID, e.MeanMotion, e.BStar = 99999, orbit.MeanMotionFromAltitude(200), 0.05
		p, err := orbit.NewPropagator(e)
		if err != nil {
			t.Fatal(err)
		}
		props = append(props, p)
	}
	return props
}

// TestMemoOrbitKeyCoversWhatSGP4Reads: every element field but the epoch,
// each satellite's start − epoch offset, the step and the sample count
// reach the orbit key; shifting the start and every epoch together, or
// the start's location, does not.
func TestMemoOrbitKeyCoversWhatSGP4Reads(t *testing.T) {
	props := fossaProps(t)
	const step, steps = 3 * time.Minute, 482
	base := orbitKey(props, memoStart, step, steps)
	els := props[1].Elements()
	changed := map[string]func(*orbit.Elements){
		"NoradID":         func(e *orbit.Elements) { e.NoradID++ },
		"Name":            func(e *orbit.Elements) { e.Name += "x" },
		"start − Epoch":   func(e *orbit.Elements) { e.Epoch = e.Epoch.Add(time.Nanosecond) },
		"BStar":           func(e *orbit.Elements) { e.BStar = -e.BStar },
		"Inclination":     func(e *orbit.Elements) { e.Inclination += 1e-12 },
		"RAAN":            func(e *orbit.Elements) { e.RAAN += 1e-12 },
		"Eccentricity":    func(e *orbit.Elements) { e.Eccentricity += 1e-12 },
		"ArgPerigee":      func(e *orbit.Elements) { e.ArgPerigee += 1e-12 },
		"MeanAnomaly":     func(e *orbit.Elements) { e.MeanAnomaly += 1e-12 },
		"MeanMotion":      func(e *orbit.Elements) { e.MeanMotion += 1e-12 },
		"a far-off Epoch": func(e *orbit.Elements) { e.Epoch = e.Epoch.AddDate(-400, 0, 0) },
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
		if orbitKey(alt, memoStart, step, steps) == base {
			t.Errorf("changing %s leaves the orbit key unchanged", name)
		}
	}
	if orbitKey(props, memoStart, step+time.Nanosecond, steps) == base {
		t.Error("changing the step leaves the orbit key unchanged")
	}
	if orbitKey(props, memoStart, step, steps+1) == base {
		t.Error("changing the sample count leaves the orbit key unchanged")
	}
	shift := 37*time.Hour + time.Nanosecond
	if orbitKey(fossaAt(t, memoStart.Add(shift), false), memoStart.Add(shift), step, steps) != base {
		t.Error("shifting the start and every epoch together changes the orbit key")
	}
	if orbitKey(props, memoStart.In(time.FixedZone("", 3600)), step, steps) != base {
		t.Error("the start's location reaches the orbit key")
	}
	// Offsets past a Duration's ±292 years must not saturate into one key.
	far := func(years int) memoKey {
		return orbitKey(fossaAt(t, memoStart.AddDate(-years, 0, 0), false), memoStart, step, steps)
	}
	if far(300) == far(400) {
		t.Error("start − epoch offsets of 300 and 400 years key alike")
	}
}

// sameGrid requires two grids to answer every sample instant and every
// midpoint between samples alike, bit for bit, and to validate and bound
// their rows alike.
func sameGrid(t *testing.T, got, want *orbit.EphemerisGrid) {
	t.Helper()
	if got.Sats() != want.Sats() || got.Steps() != want.Steps() || got.Step() != want.Step() {
		t.Fatalf("grid shape %d×%d at %v, want %d×%d at %v", got.Sats(), got.Steps(), got.Step(), want.Sats(), want.Steps(), want.Step())
	}
	for i := 0; i < want.Sats(); i++ {
		g, w := got.Sat(i), want.Sat(i)
		gr, gw, gok := g.MotionBound()
		wr, ww, wok := w.MotionBound()
		if g.Exact() != w.Exact() || gr != wr || gw != ww || gok != wok {
			t.Fatalf("row %d validates or bounds unlike a memo-free grid's", i)
		}
		start, _ := w.Span()
		for k := 0; k < want.Steps(); k++ {
			for _, at := range []time.Time{start.Add(time.Duration(k) * want.Step()), start.Add(time.Duration(k)*want.Step() + want.Step()/2)} {
				gp, gv, gerr := g.PositionECEF(at)
				wp, wv, werr := w.PositionECEF(at)
				if gp != wp || gv != wv || (gerr == nil) != (werr == nil) {
					t.Fatalf("row %d at %v: state %v %v %v, a memo-free grid's %v %v %v", i, at, gp, gv, gerr, wp, wv, werr)
				}
			}
		}
	}
}

// TestMemoOrbitFilingAcrossThreeStarts propagates one trajectory at three
// starts through one memo: the first grid miss files the grid and a note,
// the second runs SGP4 again and files the samples in the note's place
// and the grid, and the third rotates the samples and files nothing. An
// exact-mode grid needs no special case. A trajectory with a row SGP4
// cannot propagate files no samples, so it keeps its note and runs SGP4
// at every start. Every grid equals a memo-free one.
func TestMemoOrbitFilingAcrossThreeStarts(t *testing.T) {
	type step struct {
		held         string // the orbit entry after the run
		entries      int
		filed        bool // the grid itself
		hits, misses uint64
	}
	noted, sampled, rotated := step{"note", 2, true, 0, 1}, step{"samples", 3, true, 0, 2}, step{"samples", 3, false, 1, 2}
	cases := []struct {
		name     string
		cfg      orbit.EphemerisConfig
		decaying bool
		steps    [3]step
	}{
		{"interpolated", orbit.EphemerisConfig{ScanStep: time.Minute}, false, [3]step{noted, sampled, rotated}},
		{"exact", orbit.EphemerisConfig{ScanStep: time.Minute, Exact: true}, false, [3]step{noted, sampled, rotated}},
		{"decaying", orbit.EphemerisConfig{ScanStep: time.Minute}, true, [3]step{noted, {"note", 3, true, 0, 2}, {"note", 4, true, 0, 3}}},
	}
	ctx := context.Background()
	for _, tc := range cases {
		m := NewMemo(64<<20, obs.New())
		for i, want := range tc.steps {
			start := memoStart.Add(time.Duration(i) * 25 * time.Hour)
			end := start.Add(24 * time.Hour)
			props := fossaAt(t, start, tc.decaying)
			grids, err := propagate(ctx, RunContext{Memo: m}, start, end, tc.cfg, props)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := propagate(ctx, RunContext{}, start, end, tc.cfg, fossaAt(t, start, tc.decaying))
			if err != nil {
				t.Fatal(err)
			}
			sameGrid(t, grids[0], plain[0])
			held := "nothing"
			switch v, _ := m.lru.Get(orbitKey(props, start, grids[0].Step(), grids[0].Steps())); v.(type) {
			case orbitNote:
				held = "note"
			case *orbit.Trajectory:
				held = "samples"
			}
			gk, _ := gridKey(props, start, end, tc.cfg)
			_, filed := m.lru.Get(gk)
			got := step{held, m.lru.Len(), filed, m.hits[kindOrbit].Value(), m.misses[kindOrbit].Value()}
			if got != want {
				t.Errorf("%s, start %d: held %s, %d entries, grid filed %v, orbit hits/misses %d/%d; want %s, %d, %v, %d/%d",
					tc.name, i+1, got.held, got.entries, got.filed, got.hits, got.misses, want.held, want.entries, want.filed, want.hits, want.misses)
			}
		}
	}
}

// TestMemoRotatedCoverageAndBackhaulRunNoOtherSGP4: through a memo that
// holds a trajectory's samples, a coverage run and a backhaul run at a
// third start make only the SGP4 calls of step calibration (3 probed
// satellites × 4 probes × 3 propagations) and row validation (2 a row),
// file nothing, and serve a memo-free run's bytes.
func TestMemoRotatedCoverageAndBackhaulRunNoOtherSGP4(t *testing.T) {
	ctx := context.Background()
	lats := []float64{-45, 0, 30, 60}
	run := map[string]func(start time.Time, m *Memo) []byte{
		"coverage": func(start time.Time, m *Memo) []byte {
			res, err := RevisitAnalysisCtx(ctx, constellation.FOSSA(start), lats, start, 1, RunContext{Memo: m})
			if err != nil {
				t.Fatal(err)
			}
			return mustJSON(t, res)
		},
		"backhaul": func(start time.Time, m *Memo) []byte {
			res, err := RunBackhaulCtx(ctx, BackhaulConfig{Constellation: constellation.FOSSA(start), Start: start, Days: 1,
				Step: time.Minute, MinDrainGap: 150 * time.Minute, RunContext: RunContext{Memo: m}})
			if err != nil {
				t.Fatal(err)
			}
			return mustJSON(t, res)
		},
	}
	m := NewMemo(64<<20, obs.New())
	run["coverage"](memoStart, m)
	run["backhaul"](memoStart.Add(time.Hour), m)
	third := memoStart.Add(2 * time.Hour)
	want := map[string][]byte{}
	for name, r := range run {
		want[name] = r(third, nil)
	}
	entries, held := m.lru.Len(), m.lru.Bytes()

	reg := obs.New()
	orbit.SetMetrics(reg)
	defer orbit.SetMetrics(nil)
	sgp4 := reg.Counter("sinet_sgp4_calls_total", "")
	sats := uint64(len(fossaAt(t, third, false)))
	for name, r := range run {
		before := sgp4.Value()
		got := r(third, m)
		if n, calls := sgp4.Value()-before, 3*4*3+2*sats; n != calls {
			t.Errorf("%s: %d SGP4 calls, want %d for calibration and validation", name, n, calls)
		}
		if !bytes.Equal(got, want[name]) {
			t.Errorf("%s: bytes from rotated samples differ from a memo-free run", name)
		}
		if m.lru.Len() != entries || m.lru.Bytes() != held {
			t.Errorf("%s: a rotated run filed an entry: %d entries and %d bytes, was %d and %d", name, m.lru.Len(), m.lru.Bytes(), entries, held)
		}
	}
	if h := m.hits[kindOrbit].Value(); h != 2 {
		t.Errorf("orbit hits = %d, want the two rotated runs", h)
	}
}

// TestMemoCoverageAndBackhaulMergesPropagateNothing: a merge, which
// restores every unit its shards computed, makes no SGP4 call, reports
// no ephemeris progress, files nothing and serves the unsharded bytes.
func TestMemoCoverageAndBackhaulMergesPropagateNothing(t *testing.T) {
	ctx := context.Background()
	cons := constellation.FOSSA(memoStart)
	lats := []float64{-45, 0, 30, 60}
	kinds := []struct {
		name  string
		units int
		run   func(rc RunContext) any
	}{
		{"coverage", len(lats), func(rc RunContext) any {
			res, err := RevisitAnalysisCtx(ctx, cons, lats, memoStart, 1, rc)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
		{"backhaul", len(cons.Sats), func(rc RunContext) any {
			res, err := RunBackhaulCtx(ctx, BackhaulConfig{Constellation: cons, Start: memoStart, Days: 1,
				Step: time.Minute, MinDrainGap: 150 * time.Minute, RunContext: rc})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
	}
	for _, k := range kinds {
		want := mustJSON(t, k.run(RunContext{}))
		cp, save := captureCheckpoint()
		for _, w := range []ShardWindow{{Lo: 0, Hi: k.units / 2}, {Lo: k.units / 2, Hi: k.units}} {
			k.run(RunContext{Checkpoint: save, Shard: &w})
		}
		reg := obs.New()
		orbit.SetMetrics(reg)
		m := NewMemo(64<<20, nil)
		ephemeris := false
		got := mustJSON(t, k.run(RunContext{Resume: cp, Memo: m, Progress: func(phase string, _, _ int) {
			ephemeris = ephemeris || phase == "ephemeris"
		}}))
		orbit.SetMetrics(nil)
		if n := reg.Counter("sinet_sgp4_calls_total", "").Value(); n != 0 {
			t.Errorf("%s: the merge made %d SGP4 calls", k.name, n)
		}
		if ephemeris {
			t.Errorf("%s: the merge reported ephemeris progress", k.name)
		}
		if m.lru.Len() != 0 {
			t.Errorf("%s: the merge filed %d memo entries", k.name, m.lru.Len())
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: merged bytes differ from an unsharded run", k.name)
		}
	}
}
