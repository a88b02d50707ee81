GO ?= go
BENCHTIME ?= 1x

.PHONY: all build test race fmt-check bench bench-smoke fuzz-smoke serve-smoke crash-smoke cluster-smoke trace-smoke servebench-check staticcheck govulncheck ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on ./...

# fmt-check fails, listing the offenders, when any Go file under the repo
# (servebench included) is not gofmt-formatted.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi

# bench runs every benchmark five times with -benchmem and converts the
# output into a machine-readable BENCH_<date>.json via cmd/benchjson, which
# folds the repeated samples of each benchmark into a median and IQR, so
# runs are easy to diff over time. Raise BENCHTIME (e.g. BENCHTIME=5s) for
# longer samples; `make bench-smoke` is the fast everything-still-runs pass.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count 5 ./... > bench.raw.txt
	$(GO) run ./cmd/benchjson < bench.raw.txt > BENCH_$$(date +%F).json
	@rm -f bench.raw.txt
	@echo "wrote BENCH_$$(date +%F).json"

# bench-smoke runs one iteration of the pass-prediction benches, the 1k
# mega-constellation sweep, the zero-alloc ephemeris query benches, the
# ground-segment downlink sweep, and the smallest topology-build case as a
# compile-and-run check; real measurements use `go test -bench . -benchtime 5s`.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkPassPrediction(Serial|Parallel)$$|BenchmarkMegaConstellation/1k|BenchmarkEphemerisQuery|BenchmarkPassesAppend$$|BenchmarkDownlinkWindows$$|BenchmarkTopologyBuild/16sats' -benchtime 1x -benchmem .

# fuzz-smoke briefly exercises each fuzz target; the committed corpora under
# testdata/fuzz/ already run as regression cases in plain `make test`.
fuzz-smoke:
	$(GO) test ./internal/orbit/ -run '^$$' -fuzz FuzzParseTLE -fuzztime 10s
	$(GO) test ./internal/trace/ -run '^$$' -fuzz FuzzReadCSV -fuzztime 10s
	$(GO) test ./internal/service/ -run '^$$' -fuzz FuzzJobSpec -fuzztime 10s

# serve-smoke proves the daemon end to end: start sinetd on a random port
# with the cache disabled, submit a small passive job over HTTP, poll it to
# completion, and require the served bytes to be identical to the same
# campaign run directly through the sinet library.
serve-smoke:
	$(GO) run ./cmd/sinetd -smoke

# crash-smoke is the crash drill: SIGKILL a real sinetd mid-campaign, restart
# it on the same journal, and require the resumed job to serve bytes identical
# to an uninterrupted run (see cmd/sinetd/crash_test.go).
crash-smoke:
	$(GO) test ./cmd/sinetd/ -run TestCrashKillResumeServesByteIdenticalResult -count=1 -v

# cluster-smoke is the fleet drill: a real coordinator fronting two real
# sinetd workers, a campaign sharded across both, one worker SIGKILLed
# mid-shard, and the finished job required to serve bytes identical to a
# direct library run (see cmd/sinetd/cluster_test.go). The killed job's
# stitched distributed trace is captured to SINET_TRACE_OUT (the CI
# workflow uploads it as an artifact) and must show coordinator spans,
# worker spans and the resubmitted shard under one trace ID.
cluster-smoke:
	SINET_TRACE_OUT=$(CURDIR)/stitched-trace.json \
		$(GO) test ./cmd/sinetd/ -run TestClusterKillWorkerServesByteIdenticalResult -count=1 -v

# trace-smoke re-runs the cluster drill's trace assertions alone plus the
# in-process stitched-trace tests: one trace ID spanning coordinator,
# >= 2 worker spans, and a shard.attempt with attempt >= 2 after the kill.
trace-smoke: cluster-smoke
	$(GO) test ./internal/cluster/ -run 'TestClusterStitchedShardTrace|TestClusterProxiedTrace' -count=1 -v
	$(GO) test ./internal/service/ -run 'TestJobTraceEndpoint|TestDebugTracesEndpoint|TestTraceparentPropagation' -count=1 -v

# servebench-check compiles and tests the serving benchmark, which is its
# own Go module (servebench/go.mod) and so outside the root `./...`; it
# imports internal/service and must keep building as that API moves.
servebench-check:
	cd servebench && $(GO) vet ./... && $(GO) test ./...

# staticcheck / govulncheck run only when installed, so `make ci` stays usable
# in hermetic environments; the GitHub workflow installs both.
staticcheck:
	@command -v staticcheck >/dev/null 2>&1 \
		&& staticcheck ./... \
		|| echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"

govulncheck:
	@command -v govulncheck >/dev/null 2>&1 \
		&& govulncheck ./... \
		|| echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"

ci:
	$(MAKE) fmt-check
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race -shuffle=on ./...   # includes the internal/obs concurrent-scrape tests
	$(MAKE) staticcheck
	$(MAKE) govulncheck
	$(MAKE) bench-smoke
	$(MAKE) serve-smoke
	$(MAKE) crash-smoke
	$(MAKE) cluster-smoke
	$(MAKE) servebench-check
