package groundstation

import (
	"sort"
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/orbit"
)

var t0 = time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC)

func mkPass(norad int, startMin, durMin int) orbit.Pass {
	return orbit.Pass{
		NoradID: norad,
		AOS:     t0.Add(time.Duration(startMin) * time.Minute),
		LOS:     t0.Add(time.Duration(startMin+durMin) * time.Minute),
	}
}

func mkStations(n int) []Station {
	out := make([]Station, n)
	for i := range out {
		out[i] = Station{ID: string(rune('A' + i)), Site: "HK", Location: orbit.NewGeodeticDeg(22.3, 114.2, 0)}
	}
	return out
}

func TestTrackingCoversNonOverlapping(t *testing.T) {
	sched := TrackingScheduler{}
	passes := []orbit.Pass{mkPass(1, 0, 10), mkPass(2, 20, 10), mkPass(3, 40, 10)}
	got := sched.Plan(mkStations(1), passes, t0, t0.Add(2*time.Hour))
	if len(got) != 3 {
		t.Fatalf("assignments = %d, want 3 (one station suffices for serial passes)", len(got))
	}
	for i, a := range got {
		if a.StationID != "A" {
			t.Errorf("assignment %d on station %s", i, a.StationID)
		}
		if a.Pass == nil {
			t.Errorf("assignment %d missing pass back-reference", i)
		}
	}
}

func TestTrackingConcurrentPassesNeedStations(t *testing.T) {
	sched := TrackingScheduler{}
	// Three fully overlapping passes, two stations: one pass dropped.
	passes := []orbit.Pass{mkPass(1, 0, 10), mkPass(2, 1, 10), mkPass(3, 2, 10)}
	got := sched.Plan(mkStations(2), passes, t0, t0.Add(time.Hour))
	if len(got) != 2 {
		t.Fatalf("assignments = %d, want 2", len(got))
	}
	covered := map[int]bool{}
	for _, a := range got {
		covered[a.NoradID] = true
	}
	if !covered[1] || !covered[2] {
		t.Errorf("earliest passes not preferred: %v", covered)
	}
	// With three stations all are covered.
	got = sched.Plan(mkStations(3), passes, t0, t0.Add(time.Hour))
	if len(got) != 3 {
		t.Errorf("3 stations cover %d/3 passes", len(got))
	}
}

func TestTrackingFullCoverage(t *testing.T) {
	sched := TrackingScheduler{}
	p := mkPass(7, 5, 12)
	got := sched.Plan(mkStations(1), []orbit.Pass{p}, t0, t0.Add(time.Hour))
	if len(got) != 1 {
		t.Fatal("no assignment")
	}
	if cov := coverageOf(p, got); cov != p.Duration() {
		t.Errorf("tracking coverage = %v, want full %v", cov, p.Duration())
	}
}

func TestTrackingEmptyInputs(t *testing.T) {
	sched := TrackingScheduler{}
	if got := sched.Plan(nil, []orbit.Pass{mkPass(1, 0, 5)}, t0, t0.Add(time.Hour)); got != nil {
		t.Error("no stations must yield no plan")
	}
	if got := sched.Plan(mkStations(2), nil, t0, t0.Add(time.Hour)); got != nil {
		t.Error("no passes must yield no plan")
	}
}

func TestTrackingWindowClamping(t *testing.T) {
	sched := TrackingScheduler{}
	p := mkPass(1, -5, 10) // pass starts before the campaign window
	got := sched.Plan(mkStations(1), []orbit.Pass{p}, t0, t0.Add(time.Hour))
	if len(got) != 1 {
		t.Fatal("pass straddling start not planned")
	}
	if got[0].Start.Before(t0) {
		t.Error("assignment start not clamped to campaign start")
	}
	// Entirely outside the window: skipped.
	outside := mkPass(2, -30, 10)
	if got := sched.Plan(mkStations(1), []orbit.Pass{outside}, t0, t0.Add(time.Hour)); len(got) != 0 {
		t.Error("out-of-window pass planned")
	}
}

func TestRoundRobinRotation(t *testing.T) {
	sched := RoundRobinScheduler{Catalog: []int{10, 20, 30}, Slot: 10 * time.Minute}
	got := sched.Plan(mkStations(1), nil, t0, t0.Add(30*time.Minute))
	if len(got) != 3 {
		t.Fatalf("assignments = %d, want 3 slots", len(got))
	}
	want := []int{10, 20, 30}
	for i, a := range got {
		if a.NoradID != want[i] {
			t.Errorf("slot %d tuned to %d, want %d", i, a.NoradID, want[i])
		}
	}
}

func TestRoundRobinStationsDephased(t *testing.T) {
	sched := RoundRobinScheduler{Catalog: []int{10, 20, 30}, Slot: 10 * time.Minute}
	got := sched.Plan(mkStations(2), nil, t0, t0.Add(10*time.Minute))
	if len(got) != 2 {
		t.Fatalf("assignments = %d", len(got))
	}
	if got[0].NoradID == got[1].NoradID {
		t.Error("co-located stations tuned to the same satellite in the same slot")
	}
}

func TestRoundRobinDefaults(t *testing.T) {
	sched := RoundRobinScheduler{Catalog: []int{1}}
	got := sched.Plan(mkStations(1), nil, t0, t0.Add(25*time.Minute))
	// Default slot 10 min -> 3 slots (last clamped).
	if len(got) != 3 {
		t.Fatalf("assignments = %d, want 3", len(got))
	}
	if got[2].End != t0.Add(25*time.Minute) {
		t.Error("final slot not clamped to end")
	}
	if got := sched.Plan(mkStations(1), nil, t0, t0); got != nil {
		t.Error("empty window planned")
	}
	empty := RoundRobinScheduler{}
	if got := empty.Plan(mkStations(1), nil, t0, t0.Add(time.Hour)); got != nil {
		t.Error("empty catalog planned")
	}
}

func TestRoundRobinCoverageWorseThanTracking(t *testing.T) {
	// The motivating property for the paper's customized scheduler: over a
	// catalog of many satellites, round-robin catches only a fraction of a
	// pass, tracking catches all of it.
	catalog := []int{1, 2, 3, 4, 5, 6, 7, 8}
	pass := mkPass(5, 0, 12)
	stations := mkStations(1)

	rr := RoundRobinScheduler{Catalog: catalog, Slot: 5 * time.Minute}
	rrPlan := rr.Plan(stations, []orbit.Pass{pass}, t0, t0.Add(2*time.Hour))
	tr := TrackingScheduler{}
	trPlan := tr.Plan(stations, []orbit.Pass{pass}, t0, t0.Add(2*time.Hour))

	rrCov := coverageOf(pass, rrPlan)
	trCov := coverageOf(pass, trPlan)
	if trCov != pass.Duration() {
		t.Errorf("tracking coverage %v != pass duration %v", trCov, pass.Duration())
	}
	if rrCov >= trCov {
		t.Errorf("round-robin coverage %v not below tracking %v", rrCov, trCov)
	}
}

func TestAssignmentCovers(t *testing.T) {
	a := Assignment{NoradID: 9, Start: t0, End: t0.Add(time.Hour)}
	if !a.Covers(9, t0) {
		t.Error("start instant must be covered")
	}
	if a.Covers(9, t0.Add(time.Hour)) {
		t.Error("end instant must be exclusive")
	}
	if a.Covers(8, t0.Add(time.Minute)) {
		t.Error("wrong satellite covered")
	}
	if a.Duration() != time.Hour {
		t.Error("duration")
	}
}

func TestCoverageOfMergesOverlaps(t *testing.T) {
	p := mkPass(1, 0, 10)
	asg := []Assignment{
		{NoradID: 1, Start: t0, End: t0.Add(6 * time.Minute)},
		{NoradID: 1, Start: t0.Add(4 * time.Minute), End: t0.Add(9 * time.Minute)},
		{NoradID: 2, Start: t0, End: t0.Add(10 * time.Minute)}, // other sat
	}
	if cov := coverageOf(p, asg); cov != 9*time.Minute {
		t.Errorf("coverage = %v, want 9m", cov)
	}
	if cov := coverageOf(p, nil); cov != 0 {
		t.Errorf("empty coverage = %v", cov)
	}
}

// coverageOf computes, for one satellite pass, the total time any
// assignment had some station tuned to that satellite: the scheduler
// quality metric the scheduler tests compare.
func coverageOf(p orbit.Pass, assignments []Assignment) time.Duration {
	type iv struct{ s, e time.Time }
	var ivs []iv
	for _, a := range assignments {
		if a.NoradID != p.NoradID {
			continue
		}
		s := maxTime(a.Start, p.AOS)
		e := minTime(a.End, p.LOS)
		if e.After(s) {
			ivs = append(ivs, iv{s, e})
		}
	}
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s.Before(ivs[j].s) })
	var total time.Duration
	cur := ivs[0]
	for _, v := range ivs[1:] {
		if !v.s.After(cur.e) {
			if v.e.After(cur.e) {
				cur.e = v.e
			}
			continue
		}
		total += cur.e.Sub(cur.s)
		cur = v
	}
	total += cur.e.Sub(cur.s)
	return total
}
