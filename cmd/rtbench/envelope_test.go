package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestWriteBenchRecordsProvenance decodes a written envelope and finds
// what comparing two runs needs: the Go version, GOMAXPROCS, the CPU
// count and the CPU model.
func TestWriteBenchRecordsProvenance(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := writeBench(io.Discard, "t", out, map[string]any{"n": 1}, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["panel"] != "t" || doc["go"] != runtime.Version() {
		t.Fatalf("panel %v, go %v", doc["panel"], doc["go"])
	}
	if doc["gomaxprocs"] != float64(runtime.GOMAXPROCS(0)) || doc["nproc"] != float64(runtime.NumCPU()) {
		t.Fatalf("gomaxprocs %v, nproc %v", doc["gomaxprocs"], doc["nproc"])
	}
	if m, ok := doc["cpu_model"].(string); !ok || m == "" {
		t.Fatalf("cpu_model %v", doc["cpu_model"])
	}
}
