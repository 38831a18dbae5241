# Tier-1+ verification gate. `make check` is what CI and reviewers
# run: gofmt, vet, build, the full test suite under the race detector,
# the soak scenarios, `make lint` and `make benchcheck` (the static and
# empirical halves of the same no-allocation, no-blocking claim on the
# hot paths), and the benchmark module's vet and race tests.

GO ?= go

# The packages `soleil vet` self-applies to: every package on a
# dispatch or real-time hot path.
LINT_PKGS = ./internal/membrane/... ./internal/obs/... ./internal/comm/... ./internal/rtsj/... ./internal/qos/...

.PHONY: all check fmt vet build test race soak soak-cluster soak-overload soak-load lint sarif benchcheck fuzz bench-module bench bench-obs bench-scenarios clean

all: check

check: fmt vet build race soak soak-cluster soak-overload soak-load lint benchcheck bench-module

# Every tracked Go file must be gofmt-clean (by the gofmt of $(GO)'s
# own toolchain), except the analyzer's want-corpora under testdata/,
# which stay exactly as written.
fmt:
	@out=$$("$$($(GO) env GOROOT)/bin/gofmt" -l $$(git ls-files '*.go' | grep -v '\(^\|/\)testdata/')) || exit 1; \
	if [ -n "$$out" ]; then echo "fmt: not gofmt-clean:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The soak scenario: two systems over a lossy transport with a
# panicking component, supervised end to end (zero crashes, no
# goroutine leaks). -count=2 re-runs it to shake out ordering effects.
soak:
	$(GO) test -race -run TestSoakDistributedSupervision -count=2 ./internal/fault/

# The cluster soak: a 3-node deployment with a panicking worker; the
# middle node is killed and restarted mid-run, and the scenario
# requires supervised reconvergence and zero leaked goroutines. The
# second scenario overloads a cross-node degrade contract and writes
# the merged cross-node flight-recorder timeline
# (flightrecorder-crossnode-degrade.json), which must show the
# remote-breach-driven degrade transition.
soak-cluster:
	$(GO) test -race -run TestSoakClusterReconvergence -count=2 ./internal/cluster/
	$(GO) test -race -v -run TestSoakOverloadCrossNodeDegrade ./internal/cluster/

# The overload soak: two contracted pipelines offered ~40x their
# admitted rate in wall-clock time. The gates must shed (nonzero
# rejected counters), the degrade binding must detect its SLO breach,
# /healthz must stay 200 throughout, and the run must end with zero
# crashes and zero leaked goroutines. The cluster half overloads a
# cross-node degrade contract: the server-side breach must propagate
# over heartbeat digests and flip the client's gate to shedding. -v
# so CI can extract the "soak-overload:" summary lines.
soak-overload:
	$(GO) test -race -v -run TestSoakOverloadShedding ./internal/fault/
	$(GO) test -race -v -run TestSoakOverloadCrossNodeDegrade ./internal/cluster/

# The load-plane soak: one small instance of every synthesized
# scenario shape (pipeline, fanin, statemachine, reactive, sporadic)
# driven open-loop under the race detector, covering constant, burst
# and ramp arrivals plus a 3-node cluster run. Every system must tear
# down with zero leaked goroutines, traffic must complete end to end,
# and the sporadic burst storm must demonstrably engage the admission
# gates. The rate search is smoked alongside with short trials.
soak-load:
	$(GO) test -race -v -run 'TestSoakLoadScenarios|TestRateSearchFindsSustainableRate' ./internal/load/

# Where `make lint` / `make sarif` keep the interprocedural summary
# cache. CI restores this directory across runs, keyed on the analyzer
# sources, so warm runs skip summary recomputation entirely.
FACTS_DIR ?= .soleil-facts

# Source-level RTSJ conformance over the hot paths: the per-function
# rules (SA01-SA04), then the whole-architecture suite (SA05-SA11)
# against the two blessed architectures — the factory line and the
# cluster deployment. Exit 1 means unsuppressed findings; fix them or
# justify with //soleil:ignore in the same change. The final step
# replays the factory arch run against the now-warm facts cache and
# fails if anything was recomputed — the incremental path must stay
# incremental.
lint:
	$(GO) run ./cmd/soleil-vet -facts $(FACTS_DIR) $(LINT_PKGS)
	$(GO) run ./cmd/soleil-vet -arch -adl examples/factory/factory.xml -facts $(FACTS_DIR) ./examples/factory ./internal/scenario
	$(GO) run ./cmd/soleil-vet -arch -adl examples/cluster/cluster.xml -deploy examples/cluster/deploy.xml -facts $(FACTS_DIR) ./examples/cluster
	@out=$$($(GO) run ./cmd/soleil-vet -arch -adl examples/factory/factory.xml -facts $(FACTS_DIR) -facts-stats ./examples/factory ./internal/scenario 2>&1) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	case "$$out" in *"misses=0"*) ;; *) echo "lint: warm facts-cache run recomputed summaries"; exit 1;; esac

# SARIF export of the same runs for CI code scanning: per-function
# findings over the hot paths in soleil.sarif, and the
# whole-architecture suite (including SA09 flowlatency, SA10
# queuesizing, SA11 spawnleak) in soleil-arch.sarif. Findings do not
# fail this target — the lint target is the gate; this one only
# produces the upload artifacts.
sarif:
	$(GO) run ./cmd/soleil-vet -max-severity error -sarif soleil.sarif $(LINT_PKGS) || true
	$(GO) run ./cmd/soleil-vet -arch -adl examples/factory/factory.xml -facts $(FACTS_DIR) -sarif soleil-arch.sarif ./examples/factory ./internal/scenario || true
	@echo "wrote soleil.sarif soleil-arch.sarif"

# Empirical counterpart of the //soleil:noheap annotations: run the
# metered-dispatch, admission-gate, async-buffer, observability and
# link-encode hot-path benchmarks with -benchmem and fail if any
# reports a non-zero allocs/op.
benchcheck:
	@out=$$($(GO) test -run NONE -bench 'HotPath|DispatchMetered|DispatchAdmitted|GateAdmit' -benchmem -benchtime 1000x \
		./internal/obs/ ./internal/membrane/ ./internal/qos/ ./internal/comm/ ./internal/dist/) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | awk '/allocs\/op/ && $$(NF-1)+0 > 0 { bad=1; print "benchcheck: " $$1 " allocates on the hot path" } END { exit bad+0 }'
	$(GO) test -run TestSummaryBudget ./internal/lint/

# Fuzz smoke over the decoders that read link bytes: the message
# envelope, the connection hello and the heartbeat latency digest,
# 10 s each. Plain `go test` already replays each target's seeds and
# its checked-in corpus under testdata/fuzz; this target searches for
# new inputs, so it stays out of `make check`.
fuzz:
	$(GO) test -run NONE -fuzz '^FuzzDecodeMessage$$' -fuzztime 10s ./internal/dist/
	$(GO) test -run NONE -fuzz '^FuzzReadHello$$' -fuzztime 10s ./internal/cluster/
	$(GO) test -run NONE -fuzz '^FuzzDecodeDigest$$' -fuzztime 10s ./internal/obs/

# benchmark/ is a module of its own (outside ./...), so the checks
# above never compile it: vet and race-test it here, so an API change
# it depends on cannot break it unnoticed.
bench-module:
	cd benchmark && $(GO) vet . && $(GO) test -race -count=1 .

bench:
	$(GO) test -bench Fig7 -benchmem

# Observability-plane panel: ns/op and allocs/op of the HDR histogram,
# flight recorder and heartbeat digest codec, written to
# BENCH_obs.json (the recording paths must report 0 allocs/op or the
# panel fails).
bench-obs:
	$(GO) run ./cmd/rtbench -panel e

# Open-loop scenario fleet: binary-search the sustainable throughput
# (p99.9 under the bound, coordinated-omission-safe) of synthesized
# pipeline, fanin and sporadic architectures, in-process and across a
# 3-node loopback cluster, written to BENCH_scenarios.json under the
# shared bench envelope.
bench-scenarios:
	$(GO) run ./cmd/rtbench -panel f

clean:
	$(GO) clean ./...
