package core

import (
	"context"
	"encoding/json"
	"testing"

	"github.com/sinet-io/sinet/internal/constellation"
	"github.com/sinet-io/sinet/internal/mac"
)

// captureCheckpoint returns a CheckpointFunc accumulating into cp, plus
// the checkpoint. The serialization contract of CheckpointFunc (calls
// never arrive concurrently) makes the plain Add safe.
func captureCheckpoint() (*Checkpoint, CheckpointFunc) {
	cp := NewCheckpoint()
	return cp, func(phase string, index, total int, unit []byte) {
		cp.Add(phase, index, total, unit)
	}
}

// killAfter cancels ctx once n units have checkpointed, simulating a
// crash mid-campaign; saved units keep accumulating into the returned
// checkpoint exactly as journal records would survive a real kill.
func killAfter(n int, cancel context.CancelFunc) (*Checkpoint, CheckpointFunc) {
	cp := NewCheckpoint()
	saved := 0
	return cp, func(phase string, index, total int, unit []byte) {
		cp.Add(phase, index, total, unit)
		saved++
		if saved == n {
			cancel()
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// partial keeps only every other unit of each phase, exercising resumes
// that restore an arbitrary subset.
func partial(cp *Checkpoint) *Checkpoint {
	out := NewCheckpoint()
	for phase, ps := range cp.Phases {
		for idx, raw := range ps.Units {
			if idx%2 == 0 {
				out.Add(phase, idx, ps.Total, raw)
			}
		}
	}
	return out
}

func TestPassiveKillAndResumeByteIdentical(t *testing.T) {
	hk, _ := SiteByCode("HK")
	cfg := PassiveConfig{
		Seed: 42, Start: campaignStart, Days: 1,
		Sites: []Site{hk},
		Constellations: []constellation.Constellation{
			constellation.Tianqi(campaignStart),
			constellation.PICO(campaignStart),
		},
	}
	baseline, err := RunPassive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, baseline)

	// Crash after the first checkpointed unit.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed := cfg
	cp, save := killAfter(1, cancel)
	killed.Checkpoint = save
	if _, err := RunPassiveCtx(ctx, killed); err == nil {
		t.Fatal("killed run unexpectedly completed")
	}
	if cp.Len() == 0 {
		t.Fatal("kill produced no checkpointed units")
	}

	// Resume from whatever survived the crash.
	resumed := cfg
	resumed.Resume = cp
	res, err := RunPassive(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustJSON(t, res); string(got) != string(want) {
		t.Fatalf("resumed passive result differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
}

func TestPassiveResumeFromFullAndPartialCheckpoints(t *testing.T) {
	hk, _ := SiteByCode("HK")
	cfg := PassiveConfig{
		Seed: 7, Start: campaignStart, Days: 1,
		Sites:          []Site{hk},
		Constellations: []constellation.Constellation{constellation.Tianqi(campaignStart)},
	}
	cp, save := captureCheckpoint()
	full := cfg
	full.Checkpoint = save
	baseline, err := RunPassive(full)
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, baseline)
	if cp.Len() == 0 {
		t.Fatal("no units checkpointed")
	}
	for name, resume := range map[string]*Checkpoint{"full": cp, "partial": partial(cp)} {
		resumed := cfg
		resumed.Resume = resume
		res, err := RunPassive(resumed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := mustJSON(t, res); string(got) != string(want) {
			t.Fatalf("%s resume differs from uninterrupted run", name)
		}
	}
}

func TestActiveKillAndResumeByteIdentical(t *testing.T) {
	cfg := ActiveConfig{Seed: 42, Start: campaignStart, Days: 1, Policy: mac.DefaultRetxPolicy()}
	baseline, err := RunActive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, baseline)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed := cfg
	cp, save := killAfter(2, cancel)
	killed.Checkpoint = save
	if _, err := RunActiveCtx(ctx, killed); err == nil {
		t.Fatal("killed run unexpectedly completed")
	}
	if cp.Len() == 0 {
		t.Fatal("kill produced no checkpointed units")
	}

	resumed := cfg
	resumed.Resume = cp
	res, err := RunActive(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustJSON(t, res); string(got) != string(want) {
		t.Fatalf("resumed active result differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
}

func TestRoutingKillAndResumeByteIdentical(t *testing.T) {
	cfg := RoutingConfig{Seed: 42, Start: campaignStart, Days: 1}
	baseline, err := RunRouting(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, baseline)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed := cfg
	cp, save := killAfter(1, cancel)
	killed.Checkpoint = save
	if _, err := RunRoutingCtx(ctx, killed); err == nil {
		t.Fatal("killed run unexpectedly completed")
	}
	if cp.Len() == 0 {
		t.Fatal("kill produced no checkpointed units")
	}

	resumed := cfg
	resumed.Resume = cp
	res, err := RunRouting(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustJSON(t, res); string(got) != string(want) {
		t.Fatalf("resumed routing result differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
}

func TestCoverageResumeByteIdentical(t *testing.T) {
	cons := constellation.Tianqi(campaignStart)
	lats := []float64{-50, 0, 25, 50}
	baseline, err := RevisitAnalysis(cons, lats, campaignStart, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, baseline)

	cp, save := captureCheckpoint()
	if _, err := RevisitAnalysisCtx(context.Background(), cons, lats, campaignStart, 1, RunContext{Checkpoint: save}); err != nil {
		t.Fatal(err)
	}
	if got := cp.Len(); got != len(lats) {
		t.Fatalf("checkpointed %d units, want %d", got, len(lats))
	}
	res, err := RevisitAnalysisCtx(context.Background(), cons, lats, campaignStart, 1, RunContext{Resume: partial(cp)})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustJSON(t, res); string(got) != string(want) {
		t.Fatalf("resumed coverage result differs from uninterrupted run")
	}
}

// TestCheckpointStaleSnapshotIgnored pins the Total guard: a snapshot
// taken under a different unit count (config change between crash and
// resume) must be ignored, not restored into the wrong slots.
func TestCheckpointStaleSnapshotIgnored(t *testing.T) {
	cons := constellation.Tianqi(campaignStart)
	lats := []float64{0, 25, 50}
	want, err := RevisitAnalysis(cons, lats, campaignStart, 1)
	if err != nil {
		t.Fatal(err)
	}

	stale := NewCheckpoint()
	// A bogus unit recorded against a 2-unit phase must not restore into
	// the 3-latitude run.
	stale.Add("latitudes", 0, 2, []byte(`{"LatitudeDeg":-999}`))
	res, err := RevisitAnalysisCtx(context.Background(), cons, lats, campaignStart, 1, RunContext{Resume: stale})
	if err != nil {
		t.Fatal(err)
	}
	if string(mustJSON(t, res)) != string(mustJSON(t, want)) {
		t.Fatal("stale snapshot leaked into resumed results")
	}
}

// TestCheckpointCorruptUnitRecomputed: a unit that fails to decode is
// recomputed rather than trusted or fatal.
func TestCheckpointCorruptUnitRecomputed(t *testing.T) {
	cons := constellation.Tianqi(campaignStart)
	lats := []float64{0, 50}
	want, err := RevisitAnalysis(cons, lats, campaignStart, 1)
	if err != nil {
		t.Fatal(err)
	}
	cp := NewCheckpoint()
	cp.Add("latitudes", 0, len(lats), []byte(`{"LatitudeDeg": not json`))
	res, err := RevisitAnalysisCtx(context.Background(), cons, lats, campaignStart, 1, RunContext{Resume: cp})
	if err != nil {
		t.Fatal(err)
	}
	if string(mustJSON(t, res)) != string(mustJSON(t, want)) {
		t.Fatal("corrupt unit perturbed resumed results")
	}
}

// TestCheckpointProgressSpansWholePhase: resuming from a partial snapshot
// still reports progress over the full unit count, starting at the
// restored offset, strictly increasing.
func TestCheckpointProgressSpansWholePhase(t *testing.T) {
	cons := constellation.Tianqi(campaignStart)
	lats := []float64{-25, 0, 25, 50}
	cp, save := captureCheckpoint()
	if _, err := RevisitAnalysisCtx(context.Background(), cons, lats, campaignStart, 1, RunContext{Checkpoint: save}); err != nil {
		t.Fatal(err)
	}
	half := partial(cp)
	restored := half.Len()
	if restored == 0 || restored == len(lats) {
		t.Fatalf("partial checkpoint has %d units, want strictly between 0 and %d", restored, len(lats))
	}
	var reports []int
	progress := func(phase string, completed, total int) {
		if phase != "latitudes" {
			return
		}
		if total != len(lats) {
			t.Errorf("progress total %d, want %d", total, len(lats))
		}
		reports = append(reports, completed)
	}
	if _, err := RevisitAnalysisCtx(context.Background(), cons, lats, campaignStart, 1, RunContext{Progress: progress, Resume: half}); err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 || reports[0] != restored {
		t.Fatalf("first progress report %v, want restored offset %d", reports, restored)
	}
	for i := 1; i < len(reports); i++ {
		if reports[i] <= reports[i-1] {
			t.Fatalf("progress not strictly increasing: %v", reports)
		}
	}
	if last := reports[len(reports)-1]; last != len(lats) {
		t.Fatalf("final progress %d, want %d", last, len(lats))
	}
}

