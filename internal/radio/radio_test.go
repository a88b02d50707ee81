package radio

import (
	"testing"

	"github.com/sinet-io/sinet/internal/channel"
	"github.com/sinet-io/sinet/internal/lora"
	"github.com/sinet-io/sinet/internal/sim"
)

func testLink(seed int64) *Link {
	budget := channel.Budget{
		TxPowerDBm:   22,
		TxAntenna:    channel.SatelliteDipole,
		RxAntenna:    channel.TinyGSGroundAntenna,
		RxNoiseFigDB: 6,
	}
	model := channel.NewModel(sim.NewRNG(seed, "chan"))
	return NewLink(lora.DefaultDtSParams(), budget, model, 400.45, sim.NewRNG(seed, "rx"))
}

func TestTransmitCloseLinkDecodes(t *testing.T) {
	l := testLink(1)
	ok := 0
	for i := 0; i < 200; i++ {
		r := l.Transmit(Geometry{DistanceKm: 600, ElevationRad: 1.2}, channel.Sunny, 20)
		if r.Decoded {
			ok++
		}
		if r.Decoded && !r.Detected {
			t.Fatal("decoded without detection")
		}
	}
	if ok < 190 {
		t.Errorf("high-elevation 600 km link decoded %d/200, want nearly all", ok)
	}
}

func TestTransmitFarLinkFails(t *testing.T) {
	l := testLink(2)
	ok := 0
	for i := 0; i < 200; i++ {
		r := l.Transmit(Geometry{DistanceKm: 3400, ElevationRad: 0.02, RangeRateKmS: 7.0}, channel.Rainy, 20)
		if r.Decoded {
			ok++
		}
	}
	if ok > 20 {
		t.Errorf("horizon-grazing 3400 km link decoded %d/200, want almost none", ok)
	}
}

func TestTransmitElevationGradient(t *testing.T) {
	// Mid-elevation links must decode more often than edge-of-window links
	// — the mechanism behind the paper's Fig. 9.
	decodeRate := func(d, elev float64) float64 {
		l := testLink(3)
		ok := 0
		const n = 400
		for i := 0; i < n; i++ {
			if l.Transmit(Geometry{DistanceKm: d, ElevationRad: elev}, channel.Sunny, 20).Decoded {
				ok++
			}
		}
		return float64(ok) / n
	}
	mid := decodeRate(1000, 0.9)
	edge := decodeRate(3000, 0.06)
	if mid <= edge {
		t.Errorf("mid-window rate %.2f not above edge rate %.2f", mid, edge)
	}
}

func TestWeatherDegradesLink(t *testing.T) {
	rate := func(w channel.Weather) float64 {
		l := testLink(4)
		ok := 0
		const n = 600
		for i := 0; i < n; i++ {
			if l.Transmit(Geometry{DistanceKm: 2000, ElevationRad: 0.25}, w, 20).Decoded {
				ok++
			}
		}
		return float64(ok) / n
	}
	sunny, rainy := rate(channel.Sunny), rate(channel.Rainy)
	if rainy >= sunny {
		t.Errorf("rainy rate %.2f not below sunny %.2f", rainy, sunny)
	}
}

func TestDopplerPenaltyApplied(t *testing.T) {
	l := testLink(5)
	r := l.Transmit(Geometry{DistanceKm: 1500, ElevationRad: 0.3, RangeRateKmS: 7.5}, channel.Sunny, 20)
	if r.DopplerHz >= 0 {
		t.Error("receding geometry must produce negative Doppler")
	}
	if r.SNRDB > r.RawSNRDB {
		t.Error("Doppler penalty must not raise SNR")
	}
	// ~10 kHz at 400 MHz: within SF10/125k static tolerance, so penalty is
	// bounded.
	if r.RawSNRDB-r.SNRDB > 3 {
		t.Errorf("in-tolerance Doppler penalty = %.1f dB", r.RawSNRDB-r.SNRDB)
	}
}
