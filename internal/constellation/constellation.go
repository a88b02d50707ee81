// Package constellation defines the four LEO IoT constellations the paper
// measures (Table 3) as synthetic element-set catalogs: Tianqi (China),
// FOSSA (EU), PICO (US) and CSTP (Russia). Orbit altitudes, inclinations,
// plane counts and DtS frequencies match the published table; phasing
// follows a Walker-style even distribution, which reproduces the statistics
// of pass arrival (the measurement-relevant property) without the authors'
// exact TLEs.
package constellation

import (
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/sinet-io/sinet/internal/orbit"
)

// Constellation describes one satellite IoT operator's fleet and DtS
// beacon configuration.
type Constellation struct {
	Name     string
	Operator string
	Region   string

	// FreqMHz is the DtS carrier (Table 3).
	FreqMHz float64

	// BeaconInterval is the period between gateway beacons. TinyGS-class
	// satellites beacon every few tens of seconds.
	BeaconInterval time.Duration

	// BeaconPayloadBytes is the beacon frame size.
	BeaconPayloadBytes int

	// TxPowerDBm is the satellite downlink transmit power.
	TxPowerDBm float64

	Sats []orbit.Elements
}

// Size returns the number of satellites.
func (c Constellation) Size() int { return len(c.Sats) }

// String implements fmt.Stringer.
func (c Constellation) String() string {
	return fmt.Sprintf("%s (%d sats, %.2f MHz)", c.Name, c.Size(), c.FreqMHz)
}

// Propagators initializes one SGP4 propagator per satellite.
func (c Constellation) Propagators() ([]*orbit.Propagator, error) {
	props := make([]*orbit.Propagator, 0, len(c.Sats))
	for _, e := range c.Sats {
		p, err := orbit.NewPropagator(e)
		if err != nil {
			return nil, fmt.Errorf("constellation %s sat %s: %w", c.Name, e.Name, err)
		}
		props = append(props, p)
	}
	return props, nil
}

// orbitGroup is one shell of a constellation: n satellites spread between
// altitude bounds at a common inclination.
type orbitGroup struct {
	n           int
	altLoKm     float64
	altHiKm     float64
	inclDeg     float64
	planes      int // number of RAAN planes the group occupies
	raanOffset  float64
	phaseOffset float64
}

// buildGroup synthesizes element sets for one shell. Satellites are spread
// over `planes` equally spaced RAAN planes with in-plane mean-anomaly
// phasing, and altitudes interpolate linearly across the group — matching
// how real fleets from staggered launches appear in the TLE catalog.
func buildGroup(g orbitGroup, epoch time.Time, namePrefix string, firstID int) []orbit.Elements {
	els := make([]orbit.Elements, 0, g.n)
	if g.planes <= 0 {
		g.planes = g.n
	}
	for i := 0; i < g.n; i++ {
		frac := 0.0
		if g.n > 1 {
			frac = float64(i) / float64(g.n-1)
		}
		alt := g.altLoKm + (g.altHiKm-g.altLoKm)*frac
		plane := i % g.planes
		slot := i / g.planes
		raan := g.raanOffset + 2*math.Pi*float64(plane)/float64(g.planes)
		// In-plane phasing plus a small inter-plane stagger.
		ma := g.phaseOffset +
			2*math.Pi*float64(slot)/math.Max(1, float64((g.n+g.planes-1)/g.planes)) +
			2*math.Pi*float64(plane)/float64(g.planes)/3
		els = append(els, orbit.Elements{
			NoradID:      firstID + i,
			Name:         fmt.Sprintf("%s-%02d", namePrefix, i+1),
			Epoch:        epoch,
			Inclination:  g.inclDeg * math.Pi / 180,
			RAAN:         math.Mod(raan, 2*math.Pi),
			Eccentricity: 0.0012,
			ArgPerigee:   math.Mod(0.6+raan/2, 2*math.Pi),
			MeanAnomaly:  math.Mod(ma, 2*math.Pi),
			MeanMotion:   orbit.MeanMotionFromAltitude(alt),
			BStar:        2e-5,
		})
	}
	return els
}

// GroupSpec describes one orbital shell of a constellation as Table 3
// lists it.
type GroupSpec struct {
	Count   int
	AltLoKm float64
	AltHiKm float64
	InclDeg float64
}

// Spec is the published description of one constellation (Table 3).
type Spec struct {
	Name    string
	Region  string
	FreqMHz float64
	Groups  []GroupSpec
}

// Specs returns the Table 3 rows for the four measured constellations.
func Specs() []Spec {
	return []Spec{
		{Name: "Tianqi", Region: "China", FreqMHz: 400.45, Groups: []GroupSpec{
			{Count: 16, AltLoKm: 815.7, AltHiKm: 897.5, InclDeg: 49.97},
			{Count: 4, AltLoKm: 544.0, AltHiKm: 556.9, InclDeg: 35.00},
			{Count: 2, AltLoKm: 441.9, AltHiKm: 493.0, InclDeg: 97.61},
		}},
		{Name: "FOSSA", Region: "EU", FreqMHz: 401.7, Groups: []GroupSpec{
			{Count: 3, AltLoKm: 508.7, AltHiKm: 512.0, InclDeg: 97.36},
		}},
		{Name: "PICO", Region: "US", FreqMHz: 436.26, Groups: []GroupSpec{
			{Count: 9, AltLoKm: 507.9, AltHiKm: 522.1, InclDeg: 97.72},
		}},
		{Name: "CSTP", Region: "Russia", FreqMHz: 437.985, Groups: []GroupSpec{
			{Count: 5, AltLoKm: 468.3, AltHiKm: 523.7, InclDeg: 97.45},
		}},
	}
}

// Tianqi returns the full 22-satellite Tianqi constellation per Table 3:
// 16 satellites at 815.7-897.5 km / 49.97°, 4 at 544.0-556.9 km / 35.00°,
// and 2 at 441.9-493.0 km / 97.61°, all beaconing on 400.45 MHz.
func Tianqi(epoch time.Time) Constellation {
	sats := buildGroup(orbitGroup{n: 16, altLoKm: 815.7, altHiKm: 897.5, inclDeg: 49.97, planes: 8}, epoch, "TIANQI-A", 91000)
	sats = append(sats, buildGroup(orbitGroup{n: 4, altLoKm: 544.0, altHiKm: 556.9, inclDeg: 35.00, planes: 2, raanOffset: 0.7}, epoch, "TIANQI-B", 91100)...)
	sats = append(sats, buildGroup(orbitGroup{n: 2, altLoKm: 441.9, altHiKm: 493.0, inclDeg: 97.61, planes: 2, raanOffset: 1.9}, epoch, "TIANQI-C", 91200)...)
	return Constellation{
		Name:               "Tianqi",
		Operator:           "Guodian Gaoke",
		Region:             "China",
		FreqMHz:            400.45,
		BeaconInterval:     20 * time.Second,
		BeaconPayloadBytes: 24,
		TxPowerDBm:         22,
		Sats:               sats,
	}
}

// TianqiSubset returns the first n satellites of the Tianqi fleet, used for
// the Figure 3a experiment where availability improves from 13.4 h to
// 19.1 h as the active fleet grows from 12 to 22 satellites.
func TianqiSubset(epoch time.Time, n int) Constellation {
	c := Tianqi(epoch)
	if n < 0 {
		n = 0
	}
	if n > len(c.Sats) {
		n = len(c.Sats)
	}
	c.Sats = c.Sats[:n]
	c.Name = fmt.Sprintf("Tianqi[%d]", n)
	return c
}

// FOSSA returns the 3-satellite FOSSA fleet at ~510 km / 97.36° on
// 401.7 MHz.
func FOSSA(epoch time.Time) Constellation {
	return Constellation{
		Name:               "FOSSA",
		Operator:           "FOSSA Systems",
		Region:             "EU",
		FreqMHz:            401.7,
		BeaconInterval:     30 * time.Second,
		BeaconPayloadBytes: 20,
		TxPowerDBm:         21,
		Sats:               buildGroup(orbitGroup{n: 3, altLoKm: 508.7, altHiKm: 512.0, inclDeg: 97.36, planes: 3, raanOffset: 0.3}, epoch, "FOSSASAT", 92000),
	}
}

// PICO returns the 9-satellite PICO fleet at ~515 km / 97.72° on
// 436.26 MHz.
func PICO(epoch time.Time) Constellation {
	return Constellation{
		Name:               "PICO",
		Operator:           "PICO",
		Region:             "US",
		FreqMHz:            436.26,
		BeaconInterval:     25 * time.Second,
		BeaconPayloadBytes: 20,
		TxPowerDBm:         21,
		Sats:               buildGroup(orbitGroup{n: 9, altLoKm: 507.9, altHiKm: 522.1, inclDeg: 97.72, planes: 5, raanOffset: 1.1}, epoch, "PICO", 93000),
	}
}

// CSTP returns the 5-satellite CSTP fleet at ~495 km / 97.45° on
// 437.985 MHz.
func CSTP(epoch time.Time) Constellation {
	return Constellation{
		Name:               "CSTP",
		Operator:           "CSTP",
		Region:             "Russia",
		FreqMHz:            437.985,
		BeaconInterval:     30 * time.Second,
		BeaconPayloadBytes: 18,
		TxPowerDBm:         20,
		Sats:               buildGroup(orbitGroup{n: 5, altLoKm: 468.3, altHiKm: 523.7, inclDeg: 97.45, planes: 5, raanOffset: 2.3}, epoch, "CSTP", 94000),
	}
}

// catalog lists the constructors of the four measured constellations, in
// the paper's order.
var catalog = []struct {
	name  string
	build func(epoch time.Time) Constellation
}{
	{"Tianqi", Tianqi},
	{"FOSSA", FOSSA},
	{"PICO", PICO},
	{"CSTP", CSTP},
}

// All returns the four measured constellations in the paper's order.
func All(epoch time.Time) []Constellation {
	out := make([]Constellation, len(catalog))
	for i, c := range catalog {
		out[i] = c.build(epoch)
	}
	return out
}

// Names returns the names of the four measured constellations in the
// paper's order.
func Names() []string {
	out := make([]string, len(catalog))
	for i, c := range catalog {
		out[i] = c.name
	}
	return out
}

// ByName returns the measured constellation whose name matches name after
// strings.ToLower on both sides, building only that fleet. ok is false for
// any other name. Unicode case folding is deliberately not used: it would
// also admit spellings such as "FOſſA" (U+017F long s).
func ByName(name string, epoch time.Time) (c Constellation, ok bool) {
	lower := strings.ToLower(name)
	for _, entry := range catalog {
		if strings.ToLower(entry.name) == lower {
			return entry.build(epoch), true
		}
	}
	return Constellation{}, false
}

// FootprintKm2 returns the instantaneous coverage area of a satellite at
// the given altitude as the spherical cap bounded by the given minimum
// elevation angle: area = 2πR²(1−cos λ) with Earth-central angle
// λ = arccos(R·cos ε/(R+h)) − ε.
//
// Note on Table 3: the paper's footprint column is internally inconsistent
// — the Tianqi high-shell value (3.27×10⁷ km²) matches a 0°-elevation
// horizon cap, while the FOSSA/PICO/CSTP values (≈1.3×10⁷ km²) match a
// ≈5° minimum-elevation cap. The reproduction therefore reports both.
func FootprintKm2(altKm, minElevationRad float64) float64 {
	const r = 6371.0
	if altKm <= 0 {
		return 0
	}
	eps := minElevationRad
	if eps < 0 {
		eps = 0
	}
	lambda := math.Acos(r*math.Cos(eps)/(r+altKm)) - eps
	if lambda <= 0 {
		return 0
	}
	return 2 * math.Pi * r * r * (1 - math.Cos(lambda))
}

// MeanAltitudeKm returns the mean altitude of the constellation's
// satellites derived from their mean motions.
func (c Constellation) MeanAltitudeKm() float64 {
	if len(c.Sats) == 0 {
		return 0
	}
	var sum float64
	for _, s := range c.Sats {
		sum += orbit.AltitudeFromMeanMotion(s.MeanMotion)
	}
	return sum / float64(len(c.Sats))
}
