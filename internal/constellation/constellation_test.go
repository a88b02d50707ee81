package constellation

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/orbit"
)

var epoch = time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)

func TestTable3Shape(t *testing.T) {
	cases := []struct {
		c       Constellation
		size    int
		freqMHz float64
		region  string
	}{
		{Tianqi(epoch), 22, 400.45, "China"},
		{FOSSA(epoch), 3, 401.7, "EU"},
		{PICO(epoch), 9, 436.26, "US"},
		{CSTP(epoch), 5, 437.985, "Russia"},
	}
	for _, c := range cases {
		if c.c.Size() != c.size {
			t.Errorf("%s size = %d, want %d", c.c.Name, c.c.Size(), c.size)
		}
		if c.c.FreqMHz != c.freqMHz {
			t.Errorf("%s freq = %v, want %v", c.c.Name, c.c.FreqMHz, c.freqMHz)
		}
		if c.c.Region != c.region {
			t.Errorf("%s region = %q", c.c.Name, c.c.Region)
		}
		// All DtS frequencies are in the measured 400-450 MHz band.
		if c.c.FreqMHz < 400 || c.c.FreqMHz > 450 {
			t.Errorf("%s freq outside 400-450 MHz", c.c.Name)
		}
	}
}

func TestTianqiOrbitGroups(t *testing.T) {
	c := Tianqi(epoch)
	groupCount := map[string]int{}
	for _, s := range c.Sats {
		alt := orbit.AltitudeFromMeanMotion(s.MeanMotion)
		incl := s.Inclination * 180 / math.Pi
		switch {
		case alt >= 815 && alt <= 898 && math.Abs(incl-49.97) < 0.01:
			groupCount["A"]++
		case alt >= 543 && alt <= 558 && math.Abs(incl-35.0) < 0.01:
			groupCount["B"]++
		case alt >= 441 && alt <= 494 && math.Abs(incl-97.61) < 0.01:
			groupCount["C"]++
		default:
			t.Errorf("sat %s at %.1f km / %.2f° fits no Table 3 group", s.Name, alt, incl)
		}
	}
	if groupCount["A"] != 16 || groupCount["B"] != 4 || groupCount["C"] != 2 {
		t.Errorf("group sizes = %v, want A=16 B=4 C=2", groupCount)
	}
}

func TestAllSatsPropagate(t *testing.T) {
	for _, c := range All(epoch) {
		props, err := c.Propagators()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if len(props) != c.Size() {
			t.Fatalf("%s: %d propagators for %d sats", c.Name, len(props), c.Size())
		}
		for i, p := range props {
			s, err := p.PropagateMinutes(37)
			if err != nil {
				t.Errorf("%s sat %d: %v", c.Name, i, err)
				continue
			}
			alt := s.Position.Norm() - 6378.135
			if alt < 400 || alt > 950 {
				t.Errorf("%s sat %d altitude %.1f km outside LEO band", c.Name, i, alt)
			}
		}
	}
}

func TestNoradIDsUnique(t *testing.T) {
	seen := map[int]string{}
	for _, c := range All(epoch) {
		for _, s := range c.Sats {
			if prev, dup := seen[s.NoradID]; dup {
				t.Errorf("NORAD %d reused by %s and %s", s.NoradID, prev, s.Name)
			}
			seen[s.NoradID] = s.Name
		}
	}
}

func TestSatellitesPhased(t *testing.T) {
	// Satellites of one group must not be stacked at identical RAAN+MA
	// (they would rise and set together, collapsing coverage).
	c := PICO(epoch)
	type key struct{ raan, ma int }
	seen := map[key]bool{}
	for _, s := range c.Sats {
		k := key{int(s.RAAN * 100), int(s.MeanAnomaly * 100)}
		if seen[k] {
			t.Errorf("two PICO sats share phasing %v", k)
		}
		seen[k] = true
	}
}

func TestByNameMatchesAll(t *testing.T) {
	var names []string
	for _, want := range All(epoch) {
		names = append(names, want.Name)
		for _, name := range []string{want.Name, strings.ToLower(want.Name), strings.ToUpper(want.Name)} {
			got, ok := ByName(name, epoch)
			if !ok || !reflect.DeepEqual(got, want) {
				t.Errorf("ByName(%q) = %v, %v; want the catalog's %s", name, got, ok, want)
			}
		}
	}
	if !reflect.DeepEqual(Names(), names) {
		t.Errorf("Names() = %v, want %v", Names(), names)
	}
	for _, name := range []string{"", "Starlink", "Tianqi[12]", "Mega256", "FOſſA", "CſTP"} {
		if _, ok := ByName(name, epoch); ok {
			t.Errorf("ByName(%q) found a constellation", name)
		}
	}
}

func TestTianqiSubset(t *testing.T) {
	c := TianqiSubset(epoch, 12)
	if c.Size() != 12 {
		t.Errorf("subset size = %d", c.Size())
	}
	full := Tianqi(epoch)
	for i := range c.Sats {
		if c.Sats[i].NoradID != full.Sats[i].NoradID {
			t.Error("subset is not a prefix of the full fleet")
		}
	}
	if TianqiSubset(epoch, -3).Size() != 0 {
		t.Error("negative subset not clamped")
	}
	if TianqiSubset(epoch, 99).Size() != 22 {
		t.Error("oversized subset not clamped")
	}
}

func TestFootprintMatchesTable3(t *testing.T) {
	// Table 3's footprint column mixes conventions (see FootprintKm2 doc):
	// the Tianqi high shell matches a 0° horizon cap, the 500 km-class
	// fleets match a ≈5° minimum-elevation cap.
	deg5 := 5 * math.Pi / 180
	cases := []struct {
		altKm  float64
		minEl  float64
		want   float64
		relTol float64
	}{
		{897.5, 0, 3.27e7, 0.06},
		{510.4, deg5, 1.27e7, 0.08},
		{515.0, deg5, 1.31e7, 0.08},
		{496.0, deg5, 1.24e7, 0.08},
	}
	for _, c := range cases {
		got := FootprintKm2(c.altKm, c.minEl)
		if rel := math.Abs(got-c.want) / c.want; rel > c.relTol {
			t.Errorf("footprint(%v km, %.0f°) = %.3g km², want ≈%.3g (off %.1f%%)",
				c.altKm, c.minEl*180/math.Pi, got, c.want, rel*100)
		}
	}
	if FootprintKm2(0, 0) != 0 || FootprintKm2(-10, 0) != 0 {
		t.Error("degenerate altitudes must return 0")
	}
}

func TestFootprintMonotone(t *testing.T) {
	// Increasing altitude grows the footprint; increasing the elevation
	// mask shrinks it.
	prev := 0.0
	for alt := 100.0; alt <= 2000; alt += 100 {
		f := FootprintKm2(alt, 0)
		if f <= prev {
			t.Fatalf("footprint not increasing at %v km", alt)
		}
		prev = f
	}
	for el := 0.0; el < 0.5; el += 0.05 {
		if FootprintKm2(500, el) <= FootprintKm2(500, el+0.05) {
			t.Fatalf("footprint not shrinking with mask at %v rad", el)
		}
	}
}

func TestMeanAltitude(t *testing.T) {
	c := FOSSA(epoch)
	m := c.MeanAltitudeKm()
	if m < 508 || m > 513 {
		t.Errorf("FOSSA mean altitude = %.1f, want ≈510", m)
	}
	if (Constellation{}).MeanAltitudeKm() != 0 {
		t.Error("empty constellation mean altitude must be 0")
	}
}

func TestBeaconConfigsSane(t *testing.T) {
	for _, c := range All(epoch) {
		if c.BeaconInterval < 5*time.Second || c.BeaconInterval > 5*time.Minute {
			t.Errorf("%s beacon interval %v implausible", c.Name, c.BeaconInterval)
		}
		if c.BeaconPayloadBytes <= 0 || c.BeaconPayloadBytes > 255 {
			t.Errorf("%s beacon payload %d", c.Name, c.BeaconPayloadBytes)
		}
		if c.TxPowerDBm < 10 || c.TxPowerDBm > 33 {
			t.Errorf("%s tx power %v dBm implausible for a nano-satellite", c.Name, c.TxPowerDBm)
		}
	}
}
