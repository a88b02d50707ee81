// Package radio composes the lora and channel packages into a single
// "transmit one frame over a DtS link" primitive shared by every receiver
// in the system — ground stations hearing satellite beacons, satellites
// hearing node uplinks, and nodes hearing ACKs. One Link call realizes the
// channel, applies the Doppler penalty and the packet error model, and
// reports whether the frame was detected and decoded along with the radio
// metadata a trace record needs.
package radio

import (
	"time"

	"github.com/sinet-io/sinet/internal/channel"
	"github.com/sinet-io/sinet/internal/lora"
	"github.com/sinet-io/sinet/internal/sim"
)

// Link is a directional radio link with fixed modulation and budget. The
// Params and Budget fields must not be mutated after NewLink: the hot
// transmit path uses budget terms precomputed at construction.
type Link struct {
	Params   lora.Params
	Budget   channel.Budget
	Model    *channel.Model
	ErrModel lora.PacketErrorModel
	FreqMHz  float64

	rng *sim.RNG

	// Precomputed budget terms: the noise floor depends only on the fixed
	// bandwidth and noise figure, and the gain/loss sum is constant, so
	// neither needs recomputing per frame.
	noiseDBm    float64
	fixedGainDB float64
}

// NewLink builds a link. The RNG drives reception dice rolls; the channel
// model carries its own stream.
func NewLink(params lora.Params, budget channel.Budget, model *channel.Model, freqMHz float64, rng *sim.RNG) *Link {
	return &Link{
		Params:      params,
		Budget:      budget,
		Model:       model,
		ErrModel:    lora.DefaultPacketErrorModel(),
		FreqMHz:     freqMHz,
		rng:         rng,
		noiseDBm:    lora.NoiseFloorDBm(params.BandwidthHz, budget.RxNoiseFigDB),
		fixedGainDB: budget.TxPowerDBm + budget.TxAntenna.GainDB + budget.RxAntenna.GainDB - budget.ImplLossDB,
	}
}

// Geometry is the instantaneous transmitter-receiver geometry.
type Geometry struct {
	// At timestamps the frame so shadowing correlates across packets sent
	// close together (zero = independent draw).
	At           time.Time
	DistanceKm   float64
	ElevationRad float64
	// RangeRateKmS drives the Doppler offset (positive receding).
	RangeRateKmS float64
	// RangeAccelKmS2 drives the Doppler rate; for LEO links the rate is
	// well approximated from the pass geometry. Zero is acceptable for
	// short frames.
	RangeAccelKmS2 float64
}

// Reception is the outcome of one frame over the link.
type Reception struct {
	Detected  bool // preamble detected
	Decoded   bool // full frame decoded
	RSSIDBm   float64
	SNRDB     float64 // post-Doppler effective SNR
	RawSNRDB  float64 // channel SNR before the Doppler penalty
	DopplerHz float64
}

// Transmit realizes one frame of payloadBytes over the link under the given
// geometry and weather.
func (l *Link) Transmit(g Geometry, w channel.Weather, payloadBytes int) Reception {
	// Inlined Budget.ApplyAt with the constant terms hoisted to NewLink;
	// the arithmetic order matches ApplyAt exactly, so results are
	// bit-identical.
	loss := l.Model.SampleAt(g.At, g.DistanceKm, l.FreqMHz, g.ElevationRad, w)
	rssi := l.fixedGainDB - loss.TotalDB
	rawSNR := rssi - l.noiseDBm

	doppler := lora.DopplerShiftHz(l.FreqMHz*1e6, g.RangeRateKmS)
	dopplerRate := -g.RangeAccelKmS2 / 299792.458 * l.FreqMHz * 1e6
	penalty := l.Params.DopplerPenaltyDB(doppler, dopplerRate)

	snr := rawSNR - penalty
	out := Reception{
		RSSIDBm:   rssi,
		SNRDB:     snr,
		RawSNRDB:  rawSNR,
		DopplerHz: doppler,
	}
	pDetect := l.ErrModel.PreambleDetectProbability(snr, l.Params)
	if !l.rng.Bool(pDetect) {
		return out
	}
	out.Detected = true
	pDecode := l.ErrModel.SuccessProbability(snr, l.Params, payloadBytes)
	out.Decoded = l.rng.Bool(pDecode)
	return out
}
