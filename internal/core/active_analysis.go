package core

import (
	"sort"
	"time"

	"github.com/sinet-io/sinet/internal/energy"
	"github.com/sinet-io/sinet/internal/stats"
)

// Reliability returns the end-to-end delivery fraction (Fig. 5a): packets
// that reached the server over packets generated.
func (r *ActiveResult) Reliability() float64 {
	if len(r.Packets) == 0 {
		return 0
	}
	ok := 0
	for _, p := range r.Packets {
		if p.Delivered() {
			ok++
		}
	}
	return float64(ok) / float64(len(r.Packets))
}

// Reliability returns the terrestrial end-to-end delivery fraction.
func (r *TerrestrialResult) Reliability() float64 {
	if len(r.Packets) == 0 {
		return 0
	}
	ok := 0
	for _, p := range r.Packets {
		if p.Delivered() {
			ok++
		}
	}
	return float64(ok) / float64(len(r.Packets))
}

// LatencyBreakdown is Fig. 5d: the three delay segments of the satellite
// path, averaged over delivered packets.
type LatencyBreakdown struct {
	Wait     time.Duration // waiting for a satellite pass
	DtS      time.Duration // DtS (re)transmissions
	Delivery time.Duration // satellite→GS + backhaul
	Total    time.Duration
	N        int
}

// Latency computes mean end-to-end latency and its decomposition over
// delivered packets.
func (r *ActiveResult) Latency() LatencyBreakdown {
	var out LatencyBreakdown
	var wait, dts, del, total time.Duration
	for _, p := range r.Packets {
		t, ok := p.TotalLatency()
		if !ok {
			continue
		}
		w, _ := p.WaitLatency()
		d, _ := p.DtSLatency()
		v, _ := p.DeliveryLatency()
		wait += w
		dts += d
		del += v
		total += t
		out.N++
	}
	if out.N == 0 {
		return out
	}
	n := time.Duration(out.N)
	out.Wait = wait / n
	out.DtS = dts / n
	out.Delivery = del / n
	out.Total = total / n
	return out
}

// MeanLatency returns the terrestrial mean end-to-end latency.
func (r *TerrestrialResult) MeanLatency() (time.Duration, int) {
	var total time.Duration
	n := 0
	for _, p := range r.Packets {
		if l, ok := p.Latency(); ok {
			total += l
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return total / time.Duration(n), n
}

// RetxDistribution returns, for delivered packets, the distribution of the
// number of DtS retransmissions (attempts beyond the first) — Fig. 5b.
func (r *ActiveResult) RetxDistribution() *stats.Histogram {
	h, _ := stats.NewHistogram(0, 7, 7)
	for _, p := range r.Packets {
		if p.Attempts == 0 {
			continue
		}
		h.Add(float64(p.Attempts - 1))
	}
	return h
}

// MeanRetx returns the mean retransmission count over attempted packets.
func (r *ActiveResult) MeanRetx() float64 {
	sum, n := 0, 0
	for _, p := range r.Packets {
		if p.Attempts == 0 {
			continue
		}
		sum += p.Attempts - 1
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// ZeroRetxFraction is the share of attempted packets needing no DtS
// retransmission (paper: ~50%).
func (r *ActiveResult) ZeroRetxFraction() float64 {
	zero, n := 0, 0
	for _, p := range r.Packets {
		if p.Attempts == 0 {
			continue
		}
		n++
		if p.Attempts == 1 {
			zero++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(zero) / float64(n)
}

// EnergyComparison is Fig. 6: the two systems' emergent energy behaviour.
type EnergyComparison struct {
	SatAvgPowerMW    float64
	TerrAvgPowerMW   float64
	PowerRatio       float64
	SatLifetimeDays  float64
	TerrLifetimeDays float64
	SatBreakdown     []energy.Breakdown
	TerrBreakdown    []energy.Breakdown
	Battery          energy.Battery
}

// CompareEnergy derives Fig. 6's comparison from the two campaigns' meters
// (averaging across nodes).
func CompareEnergy(sat *ActiveResult, terr *TerrestrialResult, battery energy.Battery) EnergyComparison {
	out := EnergyComparison{Battery: battery}
	out.SatAvgPowerMW, out.SatBreakdown = averageMeters(sat.Meters)
	out.TerrAvgPowerMW, out.TerrBreakdown = averageMeters(terr.Meters)
	if out.TerrAvgPowerMW > 0 {
		out.PowerRatio = out.SatAvgPowerMW / out.TerrAvgPowerMW
	}
	out.SatLifetimeDays = battery.LifetimeDays(out.SatAvgPowerMW)
	out.TerrLifetimeDays = battery.LifetimeDays(out.TerrAvgPowerMW)
	return out
}

// AverageMeters returns the mean average power across node meters and the
// per-mode breakdown of the first node by ID, for report rendering.
func AverageMeters(meters map[string]*energy.Meter) (float64, []energy.Breakdown) {
	return averageMeters(meters)
}

// averageMeters returns the mean average power over the meters, summed in
// node-ID order, and the breakdown of the first node by ID (nodes are
// symmetric; one is representative). Both are independent of map order.
func averageMeters(meters map[string]*energy.Meter) (float64, []energy.Breakdown) {
	if len(meters) == 0 {
		return 0, nil
	}
	ids := make([]string, 0, len(meters))
	for id := range meters {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var sum float64
	for _, id := range ids {
		sum += meters[id].AveragePowerMW()
	}
	return sum / float64(len(meters)), meters[ids[0]].Breakdown()
}

// PerGroupReliability buckets packets by (node, day) and returns each
// bucket's delivery fraction in (node, day) order — the unit behind
// Fig. 12a's "fraction of transmissions reaching 90% reliability".
func (r *ActiveResult) PerGroupReliability() []float64 {
	type key struct {
		node string
		day  int
	}
	okCount := map[key]int{}
	total := map[key]int{}
	for _, p := range r.Packets {
		k := key{p.Node, int(p.GeneratedAt.Sub(r.Config.Start).Hours() / 24)}
		total[k]++
		if p.Delivered() {
			okCount[k]++
		}
	}
	keys := make([]key, 0, len(total))
	for k := range total {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].node != keys[j].node {
			return keys[i].node < keys[j].node
		}
		return keys[i].day < keys[j].day
	})
	out := make([]float64, len(keys))
	for i, k := range keys {
		out[i] = float64(okCount[k]) / float64(total[k])
	}
	return out
}

// FractionReaching returns the share of groups with reliability ≥
// threshold.
func FractionReaching(groups []float64, threshold float64) float64 {
	if len(groups) == 0 {
		return 0
	}
	ok := 0
	for _, g := range groups {
		if g >= threshold {
			ok++
		}
	}
	return float64(ok) / float64(len(groups))
}

// ReliabilityByConcurrency groups packets by the peak number of
// simultaneous transmissions they experienced — Fig. 12b.
func (r *ActiveResult) ReliabilityByConcurrency() map[int]float64 {
	total := map[int]int{}
	ok := map[int]int{}
	for _, p := range r.Packets {
		c := p.MaxConcurrency
		if c == 0 {
			continue // never transmitted
		}
		total[c]++
		if p.Delivered() {
			ok[c]++
		}
	}
	out := make(map[int]float64, len(total))
	for c, n := range total {
		out[c] = float64(ok[c]) / float64(n)
	}
	return out
}
