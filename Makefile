GO ?= go

# Minimum acceptable total statement coverage for `make cover`, in percent.
# Measured 81.3% when the floor was set; keep a small margin so unrelated
# refactors don't trip it.
COVER_FLOOR ?= 78

.PHONY: all check fmt fmt-check vet build test race fuzz-smoke cover \
	bench-smoke bench-ab docs-lint lint lint-github lint-selftest metrics-lint \
	serve-smoke

all: check

check: fmt-check vet build docs-lint lint metrics-lint race fuzz-smoke

# Documentation bar: every package carries a package-level doc comment and
# every exported identifier is documented (internal/tools/docslint — no
# external linter dependency).
docs-lint:
	$(GO) run ./internal/tools/docslint

# Determinism and concurrency bar: internal/tools/placelint rejects map-order
# dependence, par-closure discipline violations, wall-clock/rand reach
# (transitive, via the interprocedural facts engine), exact float comparison,
# severed error chains, allocations on //placelint:hotpath functions,
# impure callees inside par worker closures, and stale suppressions. The
# tree must be clean; safe exceptions carry //placelint:ignore <check>
# <reason>, which also clears the underlying fact for every caller.
lint:
	$(GO) run ./internal/tools/placelint

# Same gate, but emitting GitHub Actions ::error workflow commands so each
# finding annotates its line inline on the pull request. Used by the CI lint
# job; locally `make lint` is friendlier.
lint-github:
	$(GO) run ./internal/tools/placelint -github

# Metrics schema bar: the placelint metricnames check alone, run over the
# packages that register metrics. Fails on duplicate metric registration,
# non-snake_case names or labels, and names built at runtime. (Already part
# of `make lint`; this target isolates the failure for CI log clarity.)
metrics-lint:
	$(GO) run ./internal/tools/placelint -only metricnames ./internal/serve ./internal/obs/metrics ./cmd/dpplaced

# Self-test: placelint must still *catch* each violation class. Every seeded
# testdata package has to make it exit nonzero — a linter that passes its own
# tree but misses real hazards is worse than none.
lint-selftest:
	@for d in internal/tools/placelint/testdata/*/; do \
		$(GO) run ./internal/tools/placelint $$d >/dev/null 2>&1; st=$$?; \
		if [ $$st -ne 1 ]; then \
			echo "FAIL: placelint on $$d exited $$st, want 1 (violations)"; exit 1; \
		fi; \
		echo "placelint rejects $$d (as seeded)"; \
	done

# fmt rewrites; fmt-check only reports, so CI never mutates the tree.
fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Total statement coverage with a floor: fails when coverage regresses below
# COVER_FLOOR%.
cover:
	$(GO) test ./... -coverprofile=coverage.out -covermode=atomic > /dev/null
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t + 0 < f) ? 1 : 0 }' || \
		{ echo "FAIL: coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# One iteration of every benchmark: catches bit-rot in benchmark code
# without paying for real measurements. CI runs this on every push.
bench-smoke:
	$(GO) test ./... -run '^$$' -bench . -benchtime=1x

# Same-runner A/B speed gate: check BASE out in a temporary detached
# worktree, then internal/tools/benchab builds the production kernel
# microbenchmarks (wirelength, density, global router) in both trees and runs
# them in alternating rounds. A kernel fails when its median ns/op exceeds
# BASE's by more than BASE's interquartile range and by more than 10%.
bench-ab:
	@test -n "$(BASE)" || { echo "usage: make bench-ab BASE=<git ref>"; exit 2; }
	@tmp=$$(mktemp -d) && git worktree add --detach --quiet "$$tmp/base" "$(BASE)" || exit 2; \
	$(GO) run ./internal/tools/benchab "$$tmp/base"; st=$$?; \
	git worktree remove --force "$$tmp/base"; rm -rf "$$tmp"; exit $$st

# Short smoke run of each native fuzz target (go allows one -fuzz per
# invocation, so they run sequentially).
fuzz-smoke:
	$(GO) test ./internal/bookshelf -run '^$$' -fuzz '^FuzzReadAux$$' -fuzztime=10s
	$(GO) test ./internal/bookshelf -run '^$$' -fuzz '^FuzzReadNodes$$' -fuzztime=10s
	$(GO) test ./internal/bookshelf -run '^$$' -fuzz '^FuzzReadNets$$' -fuzztime=10s
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzDecodeSpec$$' -fuzztime=10s
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzBuildDesignAux$$' -fuzztime=10s

# Daemon smoke: build dpplaced and run it through two scripted lifetimes.
# Phase 1 places an example netlist end to end over HTTP, validates the
# run-report (metrics_snapshot included) and placement artifacts, scrapes
# /metrics for the core series (two idle scrapes must be byte-identical),
# then SIGTERMs and asserts a clean drain. Phase 2 reboots on the same data
# dir with a short -drain-timeout, SIGTERMs mid-job, and asserts /readyz
# flips to 503 before the job finishes, /metrics serves through the drain,
# and the forced drain exits 3.
serve-smoke:
	@mkdir -p /tmp/dpplaced-smoke
	$(GO) build -o /tmp/dpplaced-smoke/dpplaced ./cmd/dpplaced
	$(GO) run ./internal/tools/servesmoke -bin /tmp/dpplaced-smoke/dpplaced \
		-data /tmp/dpplaced-smoke/data
