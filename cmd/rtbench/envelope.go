package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// benchEnvelope is the one schema every BENCH_*.json artifact shares:
// which panel produced it, against which commit, on which platform and
// host (Go version, GOMAXPROCS, CPU count and model, under the
// repository benchmark's field names), when, and the panel's rows.
// Panel-specific context (message counts, digest sizes, trial
// durations) rides in meta so the row arrays stay homogeneous and
// trend tooling can diff files without knowing every panel's shape.
type benchEnvelope struct {
	Panel       string         `json:"panel"`
	Commit      string         `json:"commit"`
	GOOS        string         `json:"goos"`
	GOARCH      string         `json:"goarch"`
	GoVersion   string         `json:"go"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	NumCPU      int            `json:"nproc"`
	CPUModel    string         `json:"cpu_model"`
	GeneratedAt string         `json:"generatedAt"`
	Meta        map[string]any `json:"meta,omitempty"`
	Rows        any            `json:"rows"`
}

// headCommit resolves the short commit hash the benchmark ran
// against; outside a git checkout (release tarballs, CI caches) the
// envelope still validates with "unknown".
func headCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(out))
	if s == "" {
		return "unknown"
	}
	return s
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or
// "unknown" where there is none.
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

// writeBench writes one panel's rows wrapped in the shared envelope,
// and reports the file on w so terminal runs show where results went.
func writeBench(w io.Writer, panel, outFile string, meta map[string]any, rows any) error {
	if outFile == "" {
		return nil
	}
	doc := benchEnvelope{
		Panel:       panel,
		Commit:      headCommit(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		CPUModel:    cpuModel(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Meta:        meta,
		Rows:        rows,
	}
	f, err := os.Create(outFile)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", outFile)
	return nil
}
