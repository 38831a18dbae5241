package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// provenance is what every result records about where and how it was
// measured.
type provenance struct {
	Commit     string  `json:"commit"`
	Modified   bool    `json:"modified,omitempty"`
	GoVersion  string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick,omitempty"`
	WarmupS    float64 `json:"warmup_s,omitempty"`
	WindowS    float64 `json:"window_s,omitempty"`
	DrainS     float64 `json:"drain_s,omitempty"`
	Rounds     int     `json:"rounds"`
}

func newProvenance(seed int64, seconds float64, quick bool) provenance {
	p := provenance{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Seed:       seed,
		Seconds:    seconds,
		Quick:      quick,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Modified = s.Value == "true"
			}
		}
	}
	return p
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or
// "unknown".
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
