GO ?= go

# Minimum acceptable total statement coverage for `make cover`, in percent.
# Measured 81.3% when the floor was set; keep a small margin so unrelated
# refactors don't trip it.
COVER_FLOOR ?= 78

.PHONY: all check fmt fmt-check vet build test race fuzz-smoke cover \
	bench-smoke bench-ab docs-lint lint lint-github

all: check

check: fmt-check vet build docs-lint lint race fuzz-smoke

# Tools run as binaries built into a temporary directory, which is removed on
# every path, so make reports each tool's own exit status (1: findings, 2:
# could not run, as internal/tools/README.md documents) in its "Error N"
# line; `go run` reports any failure as 1. A failed build is status 2.
define tool
tmp=$$(mktemp -d) || exit 2; trap 'rm -rf "$$tmp"' EXIT; \
$(GO) build -o "$$tmp/$(1)" ./internal/tools/$(1) || exit 2; \
"$$tmp/$(1)"
endef

# Documentation bar: every package carries a package-level doc comment and
# every exported identifier is documented (internal/tools/docslint — no
# external linter dependency).
docs-lint:
	@$(call tool,docslint)

# Determinism and concurrency bar: internal/tools/placelint rejects map-order
# dependence, par-closure discipline violations (in the closure or in any
# function it calls), wall-clock/rand reach (transitive, via the
# interprocedural facts engine), exact float comparison, severed error
# chains, allocations on //placelint:hotpath functions, and stale
# suppressions. The tree must be clean; safe exceptions carry
# //placelint:ignore <check> <reason>, which also clears the underlying fact
# for every caller. Its self-test on seeded testdata is TestChecksOnTestdata.
lint:
	@$(call tool,placelint)

# Same gate, but emitting GitHub Actions ::error workflow commands so each
# finding annotates its line inline on the pull request. Used by the CI lint
# job; locally `make lint` is friendlier.
lint-github:
	@$(call tool,placelint) -github

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
# worktree (removed on every path, as is the benchab binary built beside
# it), then internal/tools/benchab builds the production kernel
# microbenchmarks (wirelength, density, global router) in both trees and runs
# them in alternating rounds. A kernel fails when its median ns/op exceeds
# BASE's by more than BASE's interquartile range and by more than 10%.
bench-ab:
	@test -n "$(BASE)" || { echo "usage: make bench-ab BASE=<git ref>"; exit 2; }
	@tmp=$$(mktemp -d) || exit 2; \
	trap 'git worktree remove --force "$$tmp/base" 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	git worktree add --detach --quiet "$$tmp/base" "$(BASE)" || exit 2; \
	$(GO) build -o "$$tmp/benchab" ./internal/tools/benchab || exit 2; \
	"$$tmp/benchab" "$$tmp/base"

# Short smoke run of each native fuzz target (go allows one -fuzz per
# invocation, so they run sequentially).
fuzz-smoke:
	$(GO) test ./internal/bookshelf -run '^$$' -fuzz '^FuzzReadAux$$' -fuzztime=10s
	$(GO) test ./internal/bookshelf -run '^$$' -fuzz '^FuzzReadNodes$$' -fuzztime=10s
	$(GO) test ./internal/bookshelf -run '^$$' -fuzz '^FuzzReadNets$$' -fuzztime=10s
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzDecodeSpec$$' -fuzztime=10s
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzBuildDesignAux$$' -fuzztime=10s
