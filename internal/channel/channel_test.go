package channel

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"github.com/sinet-io/sinet/internal/sim"
)

func TestFSPLKnownValues(t *testing.T) {
	// 1 km at 1 MHz is the formula's reference: 32.45 dB.
	if got := FreeSpacePathLossDB(1, 1); math.Abs(got-32.45) > 1e-9 {
		t.Errorf("FSPL(1km,1MHz) = %v", got)
	}
	// 1000 km at 435 MHz: 32.45 + 60 + 52.77 = 145.2 dB.
	if got := FreeSpacePathLossDB(1000, 435); math.Abs(got-145.22) > 0.05 {
		t.Errorf("FSPL(1000km,435MHz) = %.2f, want ≈145.22", got)
	}
	if FreeSpacePathLossDB(0, 435) != 0 || FreeSpacePathLossDB(100, 0) != 0 {
		t.Error("degenerate inputs must return 0")
	}
}

func TestFSPLInverseSquare(t *testing.T) {
	// Doubling the distance adds exactly 6.02 dB.
	prop := func(dQ uint16) bool {
		d := 100 + float64(dQ)
		diff := FreeSpacePathLossDB(2*d, 435) - FreeSpacePathLossDB(d, 435)
		return math.Abs(diff-20*math.Log10(2)) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestAtmosphericLossShape(t *testing.T) {
	// Monotone decreasing with elevation, small at zenith, several dB at
	// the horizon.
	prev := math.Inf(1)
	for deg := 0.0; deg <= 90; deg += 5 {
		loss := AtmosphericLossDB(deg * math.Pi / 180)
		if loss > prev+1e-9 {
			t.Errorf("atmospheric loss increased at %v°", deg)
		}
		prev = loss
	}
	if z := AtmosphericLossDB(math.Pi / 2); z > 0.5 {
		t.Errorf("zenith loss %v dB too high", z)
	}
	if h := AtmosphericLossDB(0); h < 3 {
		t.Errorf("horizon loss %v dB too low to matter", h)
	}
}

func TestWeatherOrdering(t *testing.T) {
	states := []Weather{Sunny, Cloudy, Rainy, Stormy}
	for i := 1; i < len(states); i++ {
		if states[i].AttenuationDB() <= states[i-1].AttenuationDB() {
			t.Errorf("%v attenuation not above %v", states[i], states[i-1])
		}
		if states[i].ScintillationSigmaDB() <= states[i-1].ScintillationSigmaDB() {
			t.Errorf("%v scintillation not above %v", states[i], states[i-1])
		}
	}
	if Sunny.AttenuationDB() != 0 {
		t.Error("sunny must add no attenuation")
	}
	if Sunny.String() != "sunny" || Stormy.String() != "stormy" {
		t.Error("weather String() labels wrong")
	}
	if Weather(99).String() == "" || Weather(99).AttenuationDB() != 0 {
		t.Error("unknown weather must degrade gracefully")
	}
}

func TestModelSampleComposition(t *testing.T) {
	m := NewModel(sim.NewRNG(1, "chan"))
	l := m.SampleAt(time.Time{}, 1500, 435, 30*math.Pi/180, Rainy)
	if l.FSPLDB != FreeSpacePathLossDB(1500, 435) {
		t.Error("FSPL component mismatch")
	}
	if l.WeatherDB != Rainy.AttenuationDB() {
		t.Error("weather component mismatch")
	}
	sum := l.FSPLDB + l.AtmosphereDB + l.WeatherDB + l.ShadowingDB + l.FadingDB
	if math.Abs(sum-l.TotalDB) > 1e-9 {
		t.Error("TotalDB is not the sum of components")
	}
}

func TestModelDeterministicPerSeed(t *testing.T) {
	a := NewModel(sim.NewRNG(42, "chan"))
	b := NewModel(sim.NewRNG(42, "chan"))
	for i := 0; i < 50; i++ {
		la := a.SampleAt(time.Time{}, 1200, 435, 0.5, Sunny)
		lb := b.SampleAt(time.Time{}, 1200, 435, 0.5, Sunny)
		if la != lb {
			t.Fatal("same-seed channels diverged")
		}
	}
}

func TestModelMeanLossNearDeterministicPart(t *testing.T) {
	// Averaged over many samples, the random terms must be near zero-mean
	// (shadowing is zero-mean dB; Rician fading has E[gain]=1 which gives a
	// small positive dB loss bias by Jensen, bounded by ~1 dB at K=10).
	m := NewModel(sim.NewRNG(7, "chan"))
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += m.SampleAt(time.Time{}, 1000, 435, 0.8, Sunny).TotalDB
	}
	mean := sum / n
	det := MeanLossDB(1000, 435, 0.8, Sunny)
	if math.Abs(mean-det) > 1.0 {
		t.Errorf("mean sampled loss %.2f vs deterministic %.2f differ by >1 dB", mean, det)
	}
}

func TestLowElevationFadesHarder(t *testing.T) {
	// Variance of the fade must be larger at 3° than at 60°.
	varOf := func(elev float64) float64 {
		m := NewModel(sim.NewRNG(9, "chan"))
		const n = 8000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			f := m.SampleAt(time.Time{}, 1000, 435, elev, Sunny).FadingDB
			sum += f
			sumSq += f * f
		}
		mean := sum / n
		return sumSq/n - mean*mean
	}
	lo := varOf(3 * math.Pi / 180)
	hi := varOf(60 * math.Pi / 180)
	if lo <= hi {
		t.Errorf("fading variance at 3° (%v) not above 60° (%v)", lo, hi)
	}
}

func TestBudgetApply(t *testing.T) {
	m := NewModel(sim.NewRNG(3, "chan"))
	b := Budget{
		TxPowerDBm:   22,
		TxAntenna:    SatelliteDipole,
		RxAntenna:    TinyGSGroundAntenna,
		RxNoiseFigDB: 6,
	}
	r := b.ApplyAt(time.Time{}, m, 1000, 435, 0.5, Sunny, 125e3)
	// RSSI = 22 + 2 + 2 - loss; with FSPL≈145 expect ≈ -120±10 dBm.
	if r.RSSIDBm > -105 || r.RSSIDBm < -140 {
		t.Errorf("RSSI = %.1f dBm implausible for a 1000 km DtS link", r.RSSIDBm)
	}
	// SNR = RSSI - noise floor (-117).
	wantSNR := r.RSSIDBm - (-117.03)
	if math.Abs(r.SNRDB-wantSNR) > 0.01 {
		t.Errorf("SNR %.2f inconsistent with RSSI (want %.2f)", r.SNRDB, wantSNR)
	}
}

func TestBudgetMeanRSSIPaperBand(t *testing.T) {
	// The paper observes -140..-110 dBm from LEO IoT satellites. Our mean
	// budget at representative distances must land inside that band.
	b := Budget{
		TxPowerDBm:   22,
		TxAntenna:    SatelliteDipole,
		RxAntenna:    TinyGSGroundAntenna,
		RxNoiseFigDB: 6,
	}
	for _, d := range []float64{600, 1000, 2000, 3500} {
		elev := math.Asin(500 / d) // crude but representative
		rssi := b.MeanRSSI(d, 435, elev, Sunny)
		if rssi < -142 || rssi > -108 {
			t.Errorf("mean RSSI at %v km = %.1f dBm, outside the paper's -140..-110 band", d, rssi)
		}
	}
}

func TestAntennaGainOrdering(t *testing.T) {
	if FiveEighthsWave.GainDB <= QuarterWave.GainDB {
		t.Error("5/8λ must out-gain 1/4λ")
	}
	m := NewModel(sim.NewRNG(5, "chan"))
	base := Budget{TxPowerDBm: 22, TxAntenna: QuarterWave, RxAntenna: SatelliteDipole, RxNoiseFigDB: 6}
	up := base
	up.TxAntenna = FiveEighthsWave
	// Same RNG state ⇒ comparing means over many draws.
	var dLow, dHigh float64
	for i := 0; i < 2000; i++ {
		dLow += base.ApplyAt(time.Time{}, m, 1500, 435, 0.4, Sunny, 125e3).SNRDB
		dHigh += up.ApplyAt(time.Time{}, m, 1500, 435, 0.4, Sunny, 125e3).SNRDB
	}
	if dHigh-dLow < 1000*(FiveEighthsWave.GainDB-QuarterWave.GainDB) {
		t.Error("antenna gain not reflected in mean SNR")
	}
}
