package main

import (
	"sort"
	"time"
)

// On a shared virtual machine the hypervisor now and then runs other
// guests on this machine's CPUs for seconds to minutes at a time (the
// steal column of /proc/stat). Requests caught in such a stretch are slowed
// by the host, not by the program: on a 2-CPU Xeon VM, one-second slices
// losing 5-15% of the CPUs' time took hot-repeat's p99 from 2.4 ms to
// 5-10 ms and cold-mix's p50 up by a third. The timing metrics therefore
// leave such slices out.
const (
	// stealSlice is how finely the measured window is cut.
	stealSlice = time.Second
	// maxSliceSteal is the CPU time, summed over CPUs, the hypervisor may
	// take in a slice that still counts: one 10 ms tick of the counter.
	maxSliceSteal = 0.015
)

// stealSample is the host's steal counter at one instant.
type stealSample struct {
	at    time.Time
	steal float64 // CPU seconds, summed over CPUs
}

// watchSteal samples the steal counter now and every stealSlice until stop
// is closed, then once more, and sends the samples.
func watchSteal(stop <-chan struct{}, out chan<- []stealSample) {
	samples := []stealSample{{time.Now(), stealSeconds()}}
	tick := time.NewTicker(stealSlice)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			out <- append(samples, stealSample{time.Now(), stealSeconds()})
			return
		case <-tick.C:
			samples = append(samples, stealSample{time.Now(), stealSeconds()})
		}
	}
}

// hostSlices is a measured window cut at its steal samples, each slice marked
// kept or left out of the timing metrics.
type hostSlices struct {
	bounds []time.Time // slice i is [bounds[i], bounds[i+1])
	kept   []bool
	share  []float64 // share of the CPUs' time the hypervisor took
}

// cutSlices marks each slice between consecutive samples kept when the
// hypervisor took at most maxSliceSteal CPU seconds in it. When
// fewer than half qualify, the cleanest half is kept instead, so a run
// inside a long stretch of steal still reports on its least disturbed part.
func cutSlices(samples []stealSample, nproc int) *hostSlices {
	s := &hostSlices{}
	for _, x := range samples {
		s.bounds = append(s.bounds, x.at)
	}
	n := len(samples) - 1
	s.kept, s.share = make([]bool, n), make([]float64, n)
	clean := 0
	for i := 0; i < n; i++ {
		stolen := samples[i+1].steal - samples[i].steal
		if span := samples[i+1].at.Sub(samples[i].at).Seconds() * float64(nproc); span > 0 {
			s.share[i] = stolen / span
		}
		if stolen <= maxSliceSteal {
			s.kept[i] = true
			clean++
		}
	}
	if 2*clean < n {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return s.share[order[a]] < s.share[order[b]] })
		for rank, i := range order {
			s.kept[i] = 2*rank < n
		}
	}
	return s
}

// index returns the slice holding t; times outside the window fall into
// its first or last slice.
func (s *hostSlices) index(t time.Time) int {
	i := sort.Search(len(s.bounds), func(i int) bool { return s.bounds[i].After(t) }) - 1
	return min(max(i, 0), len(s.kept)-1)
}

// keeps reports whether every slice [from, to] touches is kept.
func (s *hostSlices) keeps(from, to time.Time) bool {
	for i := s.index(from); i <= s.index(to); i++ {
		if !s.kept[i] {
			return false
		}
	}
	return true
}

// keptTime is how much of [from, to] lies in kept slices.
func (s *hostSlices) keptTime(from, to time.Time) time.Duration {
	var d time.Duration
	for i, k := range s.kept {
		lo, hi := s.bounds[i], s.bounds[i+1]
		if lo.Before(from) {
			lo = from
		}
		if hi.After(to) {
			hi = to
		}
		if k && hi.After(lo) {
			d += hi.Sub(lo)
		}
	}
	return d
}

// keptCount is the number of kept slices.
func (s *hostSlices) keptCount() int {
	n := 0
	for _, k := range s.kept {
		if k {
			n++
		}
	}
	return n
}
