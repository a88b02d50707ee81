package channel

import (
	"fmt"
	"math"
	"time"
)

// Antenna describes a ground antenna profile. The paper compares 1/4-wave
// and 5/8-wave whips on the Tianqi nodes (Fig. 5b): the 5/8λ whip has ~3 dB
// more gain toward low/mid elevations.
type Antenna struct {
	Name   string
	GainDB float64
}

// Antenna profiles used across the experiments.
var (
	// QuarterWave is the stock 1/4λ whip.
	QuarterWave = Antenna{Name: "1/4 wavelength", GainDB: 0.0}
	// FiveEighthsWave is the upgraded 5/8λ whip.
	FiveEighthsWave = Antenna{Name: "5/8 wavelength", GainDB: 3.0}
	// SatelliteDipole is the simple dipole IoT satellites carry (§2.1:
	// "simple hardware such as dipole antennas with no beamforming").
	SatelliteDipole = Antenna{Name: "satellite dipole", GainDB: 2.0}
	// TinyGSGroundAntenna is a small fixed ground-station antenna.
	TinyGSGroundAntenna = Antenna{Name: "tinygs ground", GainDB: 2.0}
)

// Budget is a directional link budget: transmitter EIRP through the channel
// to receiver input.
type Budget struct {
	TxPowerDBm   float64
	TxAntenna    Antenna
	RxAntenna    Antenna
	RxNoiseFigDB float64
	ImplLossDB   float64 // implementation/cable losses
}

// Received summarizes the receiver-side result of one packet.
type Received struct {
	RSSIDBm float64
	SNRDB   float64
	Loss    Loss
}

// ApplyAt realizes the channel at a timestamp so shadowing correlates
// across nearby packets (see Model.SampleAt).
func (b Budget) ApplyAt(at time.Time, m *Model, distanceKm, freqMHz, elevationRad float64, w Weather, bandwidthHz float64) Received {
	loss := m.SampleAt(at, distanceKm, freqMHz, elevationRad, w)
	rssi := b.TxPowerDBm + b.TxAntenna.GainDB + b.RxAntenna.GainDB - b.ImplLossDB - loss.TotalDB
	noise := noiseFloorDBm(bandwidthHz, b.RxNoiseFigDB)
	return Received{RSSIDBm: rssi, SNRDB: rssi - noise, Loss: loss}
}

// MeanRSSI returns the deterministic expected RSSI (no fading draws).
func (b Budget) MeanRSSI(distanceKm, freqMHz, elevationRad float64, w Weather) float64 {
	return b.TxPowerDBm + b.TxAntenna.GainDB + b.RxAntenna.GainDB - b.ImplLossDB -
		MeanLossDB(distanceKm, freqMHz, elevationRad, w)
}

// noiseFloorDBm duplicates lora.NoiseFloorDBm to keep the channel package
// free of a lora dependency (the two packages are composed by callers).
func noiseFloorDBm(bandwidthHz, noiseFigureDB float64) float64 {
	return -174.0 + 10.0*math.Log10(bandwidthHz) + noiseFigureDB
}

// String implements fmt.Stringer.
func (r Received) String() string {
	return fmt.Sprintf("rssi=%.1fdBm snr=%.1fdB", r.RSSIDBm, r.SNRDB)
}
