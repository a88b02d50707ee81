package lora

import "math"

// speedOfLight in km/s, matching the km/s range rates produced by the orbit
// package.
const speedOfLight = 299792.458

// log10 is a tiny alias to keep formulas readable.
func log10(x float64) float64 { return math.Log10(x) }

// DopplerShiftHz returns the carrier frequency offset seen by the receiver
// for a transmitter receding at rangeRate km/s (positive receding ⇒
// negative shift) on carrierHz.
func DopplerShiftHz(carrierHz, rangeRateKmS float64) float64 {
	return -rangeRateKmS / speedOfLight * carrierHz
}

// DopplerTolerance describes LoRa's resilience to static carrier offset and
// to offset *rate* during one packet. LoRa demodulation tracks a static
// offset up to roughly 25% of the bandwidth; faster drift than about one
// bin (BW/2^SF) per symbol during the packet breaks the chirp alignment.
type DopplerTolerance struct {
	// MaxStaticOffsetHz is the tolerable constant carrier offset.
	MaxStaticOffsetHz float64
	// MaxRateHzPerSec is the tolerable drift rate during a packet.
	MaxRateHzPerSec float64
}

// Tolerance returns the Doppler tolerance of the configuration. The static
// limit is 25% of the bandwidth (Semtech guidance); the rate limit allows
// half a frequency bin of drift per symbol time.
func (p Params) Tolerance() DopplerTolerance {
	binHz := p.BandwidthHz / float64(int(1)<<uint(p.SF))
	symbolSec := float64(p.SymbolDuration().Seconds())
	return DopplerTolerance{
		MaxStaticOffsetHz: 0.25 * p.BandwidthHz,
		MaxRateHzPerSec:   0.5 * binHz / symbolSec,
	}
}

// DopplerPenaltyDB converts a Doppler offset and rate into an equivalent
// SNR penalty. Within tolerance the penalty grows gently (imperfect
// alignment); beyond tolerance it grows steeply, effectively killing
// demodulation. This is the standard way to fold Doppler into a scalar
// link budget without simulating chirps.
func (p Params) DopplerPenaltyDB(offsetHz, rateHzPerSec float64) float64 {
	tol := p.Tolerance()
	off := math.Abs(offsetHz) / tol.MaxStaticOffsetHz
	rate := math.Abs(rateHzPerSec) / tol.MaxRateHzPerSec

	penalty := 0.0
	// Gentle in-tolerance degradation: up to 1 dB at the static limit,
	// up to 2 dB at the rate limit.
	penalty += math.Min(off, 1) * 1.0
	penalty += math.Min(rate, 1) * 2.0
	// Steep out-of-tolerance wall: 12 dB per unit of excess.
	if off > 1 {
		penalty += (off - 1) * 12.0
	}
	if rate > 1 {
		penalty += (rate - 1) * 12.0
	}
	return penalty
}
