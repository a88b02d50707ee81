package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func quickRunner() (*Runner, *strings.Builder) {
	var buf strings.Builder
	sc := QuickScale()
	return New(sc, &buf), &buf
}

func TestScales(t *testing.T) {
	q, s, p := QuickScale(), StandardScale(), PaperScale()
	if q.PassiveDays >= s.PassiveDays || s.PassiveDays > p.PassiveDays {
		t.Error("scales not ordered")
	}
	if q.Start.IsZero() || s.Start.IsZero() || p.Start.IsZero() {
		t.Error("scales missing start time")
	}
}

func TestRunnerCachesCampaigns(t *testing.T) {
	r, _ := quickRunner()
	a, err := r.Passive()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Passive()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("passive campaign not cached")
	}
	c, err := r.Active(true)
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.Active(true)
	if err != nil {
		t.Fatal(err)
	}
	if c != d {
		t.Error("active campaign not cached")
	}
	e, err := r.Active(false)
	if err != nil {
		t.Fatal(err)
	}
	if e == c {
		t.Error("retx and no-retx campaigns must differ")
	}
}

func TestTable2StaticNumbers(t *testing.T) {
	r, buf := quickRunner()
	res, err := r.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if res.SatCapital != 660 || res.TerrCapital != 762 {
		t.Errorf("capitals = %v / %v", res.SatCapital, res.TerrCapital)
	}
	if res.SatMonthlyPerNode <= res.TerrPlan {
		t.Error("satellite opex must exceed terrestrial plan")
	}
	if !strings.Contains(buf.String(), "Table 2") {
		t.Error("table header missing")
	}
}

func TestTable3Static(t *testing.T) {
	r, buf := quickRunner()
	res, err := r.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 6 { // 3 Tianqi shells + 3 single-shell fleets
		t.Errorf("rows = %d, want 6", res.Rows)
	}
	out := buf.String()
	for _, want := range []string{"Tianqi", "FOSSA", "PICO", "CSTP", "400.45"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFig10Static(t *testing.T) {
	r, buf := quickRunner()
	res, err := r.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile.Power(3) != 1630 { // Tx
		t.Error("terrestrial Tx power wrong")
	}
	if !strings.Contains(buf.String(), "Fig. 10") {
		t.Error("figure header missing")
	}
}

func TestPassiveExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiments skipped in -short")
	}
	r, buf := quickRunner()

	f3a, err := r.Fig3a()
	if err != nil {
		t.Fatal(err)
	}
	if f3a.TianqiGrowth[1] <= f3a.TianqiGrowth[0] {
		t.Errorf("fleet growth: 22 sats %v h not above 12 sats %v h", f3a.TianqiGrowth[1], f3a.TianqiGrowth[0])
	}
	if f3a.DailyHours["Tianqi"]["HK"] <= f3a.DailyHours["FOSSA"]["HK"] {
		t.Error("Tianqi presence not above FOSSA")
	}

	f4, err := r.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	for cons, shrink := range f4.Shrink {
		if shrink < 0.5 || shrink > 0.99 {
			t.Errorf("%s shrink %.2f outside plausible band", cons, shrink)
		}
	}
	if f4.TianqiDailyEffective >= f4.TianqiDailyTheoretical {
		t.Error("effective daily not below theoretical")
	}

	f8, err := r.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if f8.TianqiP90 <= f8.LowOrbitP90 {
		t.Error("Tianqi long-distance tail not above 500 km class")
	}

	f9, err := r.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if f9.MiddleFraction < 0.5 {
		t.Errorf("middle fraction %.2f", f9.MiddleFraction)
	}

	f3d, err := r.Fig3d()
	if err != nil {
		t.Fatal(err)
	}
	if f3d.OverallLoss < 0.5 {
		t.Errorf("overall beacon loss %.2f below the paper's >50%%", f3d.OverallLoss)
	}

	out := buf.String()
	for _, id := range []string{"F3a", "F3d", "F4", "F8", "F9"} {
		if !strings.Contains(out, "== "+id) {
			t.Errorf("missing section %s", id)
		}
	}
}

func TestActiveExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiments skipped in -short")
	}
	r, buf := quickRunner()

	f5a, err := r.Fig5a()
	if err != nil {
		t.Fatal(err)
	}
	if f5a.TerrestrialReliability < 0.99 {
		t.Errorf("terrestrial reliability %.3f", f5a.TerrestrialReliability)
	}
	if f5a.SatWithRetx <= f5a.SatNoRetx {
		t.Error("retx did not improve reliability")
	}

	f5cd, err := r.Fig5cd()
	if err != nil {
		t.Fatal(err)
	}
	if f5cd.Ratio < 50 {
		t.Errorf("latency ratio %.0f too small", f5cd.Ratio)
	}

	f6, err := r.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if f6.Energy.PowerRatio < 5 {
		t.Errorf("power ratio %.1f too small", f6.Energy.PowerRatio)
	}

	f11, err := r.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if f11.SleepStandbyTimeFrac < 0.9 {
		t.Errorf("terrestrial sleep+standby time %.2f", f11.SleepStandbyTimeFrac)
	}

	out := buf.String()
	for _, id := range []string{"F5a", "F5c/F5d", "F6", "F11"} {
		if !strings.Contains(out, "== "+id) {
			t.Errorf("missing section %s", id)
		}
	}
}

// TestFigureReportsRenderIdentically renders F3d and F6 ten times each
// from one runner's cached campaigns: the bytes must not depend on map
// iteration order.
func TestFigureReportsRenderIdentically(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiments skipped in -short")
	}
	r := New(QuickScale(), nil)
	for _, fig := range []struct {
		id     string
		render func() error
	}{
		{"F3d", func() error { _, err := r.Fig3d(); return err }},
		{"F6", func() error { _, err := r.Fig6(); return err }},
	} {
		var first string
		for i := 0; i < 10; i++ {
			var buf bytes.Buffer
			r.Out = &buf
			if err := fig.render(); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = buf.String()
			} else if buf.String() != first {
				t.Fatalf("%s render %d differs from the first:\n%s\nvs\n%s", fig.id, i, buf.String(), first)
			}
		}
	}
}

func TestOptimizations(t *testing.T) {
	if testing.Short() {
		t.Skip("optimization sweep skipped in -short")
	}
	r, buf := quickRunner()
	res, err := r.Optimizations()
	if err != nil {
		t.Fatal(err)
	}
	if res.SleepIdlePowerMW >= res.StockPowerMW {
		t.Errorf("sleep-when-idle power %.1f not below stock %.1f", res.SleepIdlePowerMW, res.StockPowerMW)
	}
	if res.EnergySaving <= 0 || res.EnergySaving >= 1 {
		t.Errorf("energy saving %.2f out of range", res.EnergySaving)
	}
	if res.ScheduleAwarePowerMW >= res.SleepIdlePowerMW {
		t.Errorf("schedule-aware power %.1f not below sleep-idle %.1f",
			res.ScheduleAwarePowerMW, res.SleepIdlePowerMW)
	}
	if res.GatedAttempts >= res.UngatedAttempts {
		t.Errorf("SNR gate did not reduce attempts: %d vs %d", res.GatedAttempts, res.UngatedAttempts)
	}
	// Reliability is monotone (within noise) in the retx budget.
	if res.RetxReliability[5] < res.RetxReliability[0] {
		t.Errorf("retx=5 reliability %.3f below retx=0 %.3f",
			res.RetxReliability[5], res.RetxReliability[0])
	}
	if !strings.Contains(buf.String(), "OPT") {
		t.Error("optimizations section missing")
	}
}

func TestFig12aOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short")
	}
	r, _ := quickRunner()
	res, err := r.Fig12a()
	if err != nil {
		t.Fatal(err)
	}
	if res.Reliability[120] > res.Reliability[10] {
		t.Errorf("120B reliability %.3f above 10B %.3f", res.Reliability[120], res.Reliability[10])
	}
}
