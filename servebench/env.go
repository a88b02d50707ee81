package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envInfo is recorded with every result so runs on different machines or
// commits are never compared unknowingly.
type envInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	JournalFS  string  `json:"journal_fs"`
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Loop       string  `json:"loop"`
	Clients    int     `json:"clients"`
	RatePerS   float64 `json:"rate_per_s,omitempty"`
}

func captureEnv(workdir string) envInfo {
	commit := os.Getenv("SERVEBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		JournalFS:  fsType(workdir),
		Commit:     commit,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// fsType names the filesystem holding dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}

// cpuSeconds reads the process's user+sys CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// stealSeconds reads the CPU time the hypervisor ran other guests while
// this machine's CPUs had work (the steal column of /proc/stat), summed over
// CPUs; 0 where it is not reported.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // /proc/stat counts in USER_HZ, 100 on Linux
}

// rssMB reads the process's current resident set.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssSample is the resident set at one instant.
type rssSample struct {
	at time.Time
	mb float64
}

// watchRSS samples the resident set now and every 20 ms until stop is
// closed, then once more, and sends the samples.
func watchRSS(stop <-chan struct{}, out chan<- []rssSample) {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	samples := []rssSample{{time.Now(), rssMB()}}
	for {
		select {
		case <-stop:
			out <- append(samples, rssSample{time.Now(), rssMB()})
			return
		case <-tick.C:
			samples = append(samples, rssSample{time.Now(), rssMB()})
		}
	}
}

// peakRSS is the largest sample taken no later than until; a zero until
// takes every sample.
func peakRSS(samples []rssSample, until time.Time) float64 {
	peak := 0.0
	for _, s := range samples {
		if until.IsZero() || !s.at.After(until) {
			peak = math.Max(peak, s.mb)
		}
	}
	return peak
}
