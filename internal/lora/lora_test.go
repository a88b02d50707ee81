package lora

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestSpreadingFactorValidity(t *testing.T) {
	for sf := SF7; sf <= SF12; sf++ {
		if !sf.Valid() {
			t.Errorf("%v reported invalid", sf)
		}
	}
	for _, sf := range []SpreadingFactor{0, 6, 13, -1} {
		if sf.Valid() {
			t.Errorf("SF%d reported valid", int(sf))
		}
	}
}

func TestDemodFloorsMonotone(t *testing.T) {
	// Each SF step buys ~2.5 dB of demodulation margin.
	prev := math.Inf(1)
	for sf := SF7; sf <= SF12; sf++ {
		floor := sf.DemodFloorDB()
		if floor >= prev {
			t.Errorf("%v floor %v not below previous %v", sf, floor, prev)
		}
		prev = floor
	}
	if SF7.DemodFloorDB() != -7.5 || SF12.DemodFloorDB() != -20.0 {
		t.Error("endpoint demod floors do not match the SX126x data sheet")
	}
}

func TestParamsValidate(t *testing.T) {
	good := DefaultDtSParams()
	if err := good.Validate(); err != nil {
		t.Errorf("default DtS params invalid: %v", err)
	}
	if err := DefaultTerrestrialParams().Validate(); err != nil {
		t.Errorf("default terrestrial params invalid: %v", err)
	}

	bad := good
	bad.SF = 6
	if err := bad.Validate(); !errors.Is(err, ErrBadSF) {
		t.Errorf("want ErrBadSF, got %v", err)
	}
	bad = good
	bad.BandwidthHz = 100e3
	if err := bad.Validate(); !errors.Is(err, ErrBadBW) {
		t.Errorf("want ErrBadBW, got %v", err)
	}
	bad = good
	bad.CR = 9
	if err := bad.Validate(); !errors.Is(err, ErrBadCR) {
		t.Errorf("want ErrBadCR, got %v", err)
	}
	bad = good
	bad.PreambleLen = 2
	if err := bad.Validate(); err == nil {
		t.Error("short preamble accepted")
	}
}

func TestSymbolDuration(t *testing.T) {
	p := Params{SF: SF7, BandwidthHz: 125e3}
	// 2^7 / 125 kHz = 1.024 ms.
	if got := p.SymbolDuration(); got != 1024*time.Microsecond {
		t.Errorf("SF7/125k symbol = %v, want 1.024ms", got)
	}
	p = Params{SF: SF12, BandwidthHz: 125e3}
	if got := p.SymbolDuration(); got != 32768*time.Microsecond {
		t.Errorf("SF12/125k symbol = %v, want 32.768ms", got)
	}
}

func TestAirtimeKnownValue(t *testing.T) {
	// Hand-computed from the AN1200.13 formula: SF7, 125 kHz, CR 4/5,
	// preamble 8, explicit header, CRC on, 20-byte payload:
	// preamble (8+4.25) symbols + payload 8+ceil(176/28)·5 = 43 symbols,
	// 55.25 symbols × 1.024 ms = 56.576 ms.
	p := Params{SF: SF7, BandwidthHz: 125e3, CR: CR45, PreambleLen: 8, ExplicitHdr: true, CRCOn: true}
	got := p.Airtime(20).Seconds() * 1000
	if math.Abs(got-56.576) > 0.01 {
		t.Errorf("SF7 20B airtime = %.3f ms, want 56.576", got)
	}

	// SF12/125k with LDRO, 20 bytes: the calculator gives ≈ 1318.9 ms —
	// the paper's "a single transmission can last for hundreds to
	// thousands of ms" regime.
	p = Params{SF: SF12, BandwidthHz: 125e3, CR: CR45, PreambleLen: 8, ExplicitHdr: true, CRCOn: true, LowDataRateOptimize: true}
	got = p.Airtime(20).Seconds() * 1000
	if math.Abs(got-1318.9) > 15 {
		t.Errorf("SF12 20B airtime = %.1f ms, want ≈1318.9", got)
	}
}

func TestAirtimeMonotoneInPayload(t *testing.T) {
	p := DefaultDtSParams()
	prop := func(a, b uint8) bool {
		if a > b {
			a, b = b, a
		}
		return p.Airtime(int(a)) <= p.Airtime(int(b))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestAirtimeMonotoneInSF(t *testing.T) {
	for sf := SF7; sf < SF12; sf++ {
		a := Params{SF: sf, BandwidthHz: 125e3, CR: CR45, PreambleLen: 8, ExplicitHdr: true, CRCOn: true}
		b := a
		b.SF = sf + 1
		if a.Airtime(40) >= b.Airtime(40) {
			t.Errorf("airtime not increasing from %v to %v", sf, sf+1)
		}
	}
}

func TestAirtimeNegativePayloadClamped(t *testing.T) {
	p := DefaultDtSParams()
	if p.Airtime(-5) != p.Airtime(0) {
		t.Error("negative payload not clamped to zero")
	}
}

func TestBitRate(t *testing.T) {
	// SF7/125k CR4/5: 7 * 976.5625 * 0.8 = 5468.75 bps.
	p := Params{SF: SF7, BandwidthHz: 125e3, CR: CR45}
	if got := p.BitRate(); math.Abs(got-5468.75) > 0.01 {
		t.Errorf("bit rate = %v, want 5468.75", got)
	}
	// Higher SF decreases bit rate.
	p12 := Params{SF: SF12, BandwidthHz: 125e3, CR: CR45}
	if p12.BitRate() >= p.BitRate() {
		t.Error("SF12 bit rate not below SF7")
	}
}

func TestSensitivityMatchesDataSheet(t *testing.T) {
	// SX126x data sheet, 125 kHz, NF≈6 dB: SF7 ≈ -124.5 dBm, SF12 ≈ -137 dBm.
	p7 := Params{SF: SF7, BandwidthHz: 125e3}
	if got := p7.SensitivityDBm(6); math.Abs(got-(-124.5)) > 1.5 {
		t.Errorf("SF7 sensitivity = %.1f dBm, want ≈-124.5", got)
	}
	p12 := Params{SF: SF12, BandwidthHz: 125e3}
	if got := p12.SensitivityDBm(6); math.Abs(got-(-137.0)) > 1.5 {
		t.Errorf("SF12 sensitivity = %.1f dBm, want ≈-137", got)
	}
}

func TestNoiseFloor(t *testing.T) {
	// -174 + 10log10(125000) + 6 = -117.03 dBm.
	if got := NoiseFloorDBm(125e3, 6); math.Abs(got-(-117.03)) > 0.01 {
		t.Errorf("noise floor = %.2f, want -117.03", got)
	}
}

func TestDopplerShift(t *testing.T) {
	// 7.6 km/s at 435 MHz -> ~11 kHz shift magnitude.
	shift := DopplerShiftHz(435e6, 7.6)
	if shift >= 0 {
		t.Error("receding satellite must shift frequency down")
	}
	if math.Abs(math.Abs(shift)-11026) > 50 {
		t.Errorf("|shift| = %.0f Hz, want ≈11026", math.Abs(shift))
	}
	// Approaching shifts up.
	if DopplerShiftHz(435e6, -7.6) <= 0 {
		t.Error("approaching satellite must shift frequency up")
	}
}

func TestDopplerToleranceScales(t *testing.T) {
	narrow := Params{SF: SF12, BandwidthHz: 125e3}
	wide := Params{SF: SF12, BandwidthHz: 500e3}
	tn, tw := narrow.Tolerance(), wide.Tolerance()
	if tw.MaxStaticOffsetHz <= tn.MaxStaticOffsetHz {
		t.Error("wider BW must tolerate larger static offset")
	}
	if tn.MaxStaticOffsetHz != 0.25*125e3 {
		t.Errorf("static tolerance = %v, want 31.25 kHz", tn.MaxStaticOffsetHz)
	}
	// Higher SF has longer symbols -> lower tolerable drift rate.
	lowSF := Params{SF: SF7, BandwidthHz: 125e3}
	if lowSF.Tolerance().MaxRateHzPerSec <= narrow.Tolerance().MaxRateHzPerSec {
		t.Error("SF7 must tolerate faster drift than SF12")
	}
}

func TestDopplerPenalty(t *testing.T) {
	p := DefaultDtSParams()
	if pen := p.DopplerPenaltyDB(0, 0); pen != 0 {
		t.Errorf("zero Doppler penalty = %v", pen)
	}
	tol := p.Tolerance()
	in := p.DopplerPenaltyDB(tol.MaxStaticOffsetHz*0.5, 0)
	out := p.DopplerPenaltyDB(tol.MaxStaticOffsetHz*2.0, 0)
	if in >= out {
		t.Error("penalty must grow with offset")
	}
	if in > 3 {
		t.Errorf("in-tolerance penalty %v dB too harsh", in)
	}
	if out < 10 {
		t.Errorf("out-of-tolerance penalty %v dB too lenient", out)
	}
	// Penalty is symmetric in sign.
	if p.DopplerPenaltyDB(-5000, 0) != p.DopplerPenaltyDB(5000, 0) {
		t.Error("penalty not symmetric")
	}
}

func TestPacketErrorModelWaterfall(t *testing.T) {
	m := DefaultPacketErrorModel()
	p := DefaultDtSParams()
	floor := p.SF.DemodFloorDB()

	// Far above the floor: near-certain success.
	if got := m.SuccessProbability(floor+10, p, 20); got < 0.99 {
		t.Errorf("success at +10 dB margin = %v", got)
	}
	// Far below: near-certain failure.
	if got := m.SuccessProbability(floor-6, p, 20); got > 0.01 {
		t.Errorf("success at -6 dB margin = %v", got)
	}
	// Monotone in SNR.
	prev := 0.0
	for snr := floor - 8; snr < floor+8; snr += 0.5 {
		got := m.SuccessProbability(snr, p, 20)
		if got < prev-1e-12 {
			t.Fatalf("waterfall not monotone at %v dB", snr)
		}
		prev = got
	}
}

func TestPacketErrorModelPayloadOrdering(t *testing.T) {
	// At fixed SNR, larger payloads decode less often (paper Fig. 12a).
	m := DefaultPacketErrorModel()
	p := DefaultDtSParams()
	snr := p.SF.DemodFloorDB() + 2
	p10 := m.SuccessProbability(snr, p, 10)
	p60 := m.SuccessProbability(snr, p, 60)
	p120 := m.SuccessProbability(snr, p, 120)
	if !(p10 > p60 && p60 > p120) {
		t.Errorf("payload ordering violated: %v, %v, %v", p10, p60, p120)
	}
}

func TestPreambleDetectMoreRobustThanDecode(t *testing.T) {
	m := DefaultPacketErrorModel()
	p := DefaultDtSParams()
	for snr := -25.0; snr < -5; snr += 1.0 {
		det := m.PreambleDetectProbability(snr, p)
		dec := m.SuccessProbability(snr, p, 20)
		if det < dec-1e-9 {
			t.Errorf("snr=%v: detect %v < decode %v", snr, det, dec)
		}
	}
}

func TestProbabilitiesBounded(t *testing.T) {
	m := DefaultPacketErrorModel()
	p := DefaultDtSParams()
	prop := func(snrQ int16, payload uint8) bool {
		snr := float64(snrQ) / 100
		s := m.SuccessProbability(snr, p, int(payload))
		d := m.PreambleDetectProbability(snr, p)
		return s >= 0 && s <= 1 && d >= 0 && d <= 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
