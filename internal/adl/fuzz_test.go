package adl

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeeds returns the repository's ADL documents: the validator's
// rule fixtures and the examples' architectures and deployments. Each
// target gets all of them, so each decoder also sees the other's
// documents.
func fuzzSeeds(f *testing.F) [][]byte {
	f.Helper()
	var paths []string
	for _, glob := range []string{
		"../validate/testdata/*.xml",
		"../../examples/factory/*.xml",
		"../../examples/cluster/*.xml",
		"../../examples/lintbad/*.xml",
	} {
		m, err := filepath.Glob(glob)
		if err != nil {
			f.Fatal(err)
		}
		paths = append(paths, m...)
	}
	if len(paths) == 0 {
		f.Fatal("no seed documents found")
	}
	var seeds [][]byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	return seeds
}

// FuzzDecodeADL feeds arbitrary bytes to the architecture decoder. It
// must never panic, and an architecture it accepts must encode to a
// document that decodes and encodes to the same bytes again.
func FuzzDecodeADL(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		a, err := Decode(bytes.NewReader(doc))
		if err != nil {
			return
		}
		first, err := EncodeString(a)
		if err != nil {
			t.Fatalf("encode an accepted architecture: %v", err)
		}
		b, err := DecodeString(first)
		if err != nil {
			t.Fatalf("decode its encoding: %v\n%s", err, first)
		}
		second, err := EncodeString(b)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if first != second {
			t.Fatalf("encoding not stable:\n%s\nthen\n%s", first, second)
		}
	})
}

// FuzzDecodeDeployment is FuzzDecodeADL's counterpart for deployment
// descriptors.
func FuzzDecodeDeployment(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		d, err := DecodeDeployment(bytes.NewReader(doc))
		if err != nil {
			return
		}
		first, err := EncodeDeploymentString(d)
		if err != nil {
			t.Fatalf("encode an accepted deployment: %v", err)
		}
		e, err := DecodeDeploymentString(first)
		if err != nil {
			t.Fatalf("decode its encoding: %v\n%s", err, first)
		}
		second, err := EncodeDeploymentString(e)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if first != second {
			t.Fatalf("encoding not stable:\n%s\nthen\n%s", first, second)
		}
	})
}
