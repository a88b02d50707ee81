GO ?= go
BENCHTIME ?= 1x

.PHONY: all build test race fmt-check lines figures-check bench bench-smoke fuzz-smoke serve-smoke crash-smoke cluster-smoke trace-smoke servebench-check staticcheck govulncheck ci

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

# lines prints non-test Go lines (wc -l over every non-_test.go file) per
# package directory and in total. servebench, its own module, gets its own
# line and stays out of the total.
lines:
	@find . -name '*.go' ! -name '*_test.go' ! -path './servebench/*' -exec wc -l {} + \
		| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/^\.\//, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t }'
	@find servebench -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l \
		| awk '{ printf "%7d  servebench (own module, not in total)\n", $$1 }'

# figures-check regenerates the standard-scale figure report and requires it
# to match the committed figures_standard.txt byte for byte, apart from the
# timestamp header (line 1) and the closing `completed in` line.
figures-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
		$(GO) run ./cmd/figures -scale standard > "$$tmp/got.txt" && \
		sed '1d;/^completed in /d' figures_standard.txt > "$$tmp/want.txt" && \
		sed '1d;/^completed in /d' "$$tmp/got.txt" | diff -u "$$tmp/want.txt" - && \
		echo "figures_standard.txt regenerates identically"

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
# ground-segment downlink sweep, the smallest topology-build case, the
# coverage kind's nine-latitude revisit analysis, the journal's durable and
# write-behind appends, the event engine, the earliest-delivery search,
# the active plan phase's compute, memo and resume paths, and the cold,
# memo-warm and shard runs of a routing, a passive, a coverage and a
# backhaul geometry (the last two warm at a new start, so their grids
# rotate held TEME samples) as a compile-and-run check; real measurements
# use `go test -bench . -benchtime 5s`.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkPassPrediction(Serial|Parallel)$$|BenchmarkMegaConstellation/1k|BenchmarkEphemerisQuery|BenchmarkPassesAppend$$|BenchmarkDownlinkWindows$$|BenchmarkTopologyBuild/16sats|BenchmarkRevisitAnalysis$$' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkJournalAppend' -benchtime 1x -benchmem ./internal/journal/
	$(GO) test -run '^$$' -bench 'BenchmarkEngine$$|BenchmarkDeliverySearch$$' -benchtime 1x -benchmem ./internal/sim/ ./internal/netgraph/
	$(GO) test -run '^$$' -bench 'BenchmarkActivePlanPhase$$|BenchmarkSeedIndependentPhases$$' -benchtime 1x -benchmem ./internal/core/

# fuzz-smoke briefly exercises each fuzz target; the committed corpora under
# testdata/fuzz/ already run as regression cases in plain `make test`.
# `make ci` runs it too, so the HTTP-facing decoders are fuzzed on every
# push; new interesting inputs land in GOCACHE, not in the tree.
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
	$(MAKE) figures-check
	$(MAKE) fuzz-smoke
	$(MAKE) staticcheck
	$(MAKE) govulncheck
	$(MAKE) bench-smoke
	$(MAKE) serve-smoke
	$(MAKE) crash-smoke
	$(MAKE) cluster-smoke
	$(MAKE) servebench-check
