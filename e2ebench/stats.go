package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs; 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// maxRSSMiB reports this process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSnap is a reading of the Go runtime's allocation and CPU
// accounting; differences of two readings cover the work in between.
type runtimeSnap struct {
	AllocBytes float64 `json:"alloc_bytes"`
	GCCPU      float64 `json:"gc_cpu_s"`
	BusyCPU    float64 `json:"busy_cpu_s"` // all CPU classes except idle
}

var runtimeSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeSampleNames))
	for i, n := range runtimeSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSnap{
		AllocBytes: val(s[0].Value),
		GCCPU:      val(s[1].Value),
		BusyCPU:    val(s[2].Value) - val(s[3].Value),
	}
}

func (a runtimeSnap) sub(b runtimeSnap) runtimeSnap {
	return runtimeSnap{a.AllocBytes - b.AllocBytes, a.GCCPU - b.GCCPU, a.BusyCPU - b.BusyCPU}
}

func (a runtimeSnap) add(b runtimeSnap) runtimeSnap {
	return runtimeSnap{a.AllocBytes + b.AllocBytes, a.GCCPU + b.GCCPU, a.BusyCPU + b.BusyCPU}
}

// hostInfo fingerprints the machine and build a result was measured on.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
}

func fingerprint() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GitRev:     "unknown",
	}
	// The build stamps the revision when the source is a git checkout.
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			h.GitRev = rev
			if dirty {
				h.GitRev += "+dirty"
			}
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
