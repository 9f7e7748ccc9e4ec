# Single entry points shared by CI (.github/workflows/ci.yml) and humans:
# CI invokes exactly these targets so a green `make ci` locally means a
# green check remotely.

GO ?= go

# Pinned so CI is reproducible; `go install` this version locally to run
# the same check the workflow runs.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: build test race bench bench-json minuteserve minuteserve-json lint fmt doccheck docs-check analyze install-staticcheck loc perfbench-check ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration per benchmark: the smoke run CI executes, and the source
# of the ms/artifact trajectory recorded in BENCH.json.
bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' .

# Regenerate the hot-path perf trajectory (ns/op + allocs/op for the VLP
# GEMM, decode step, proxy loss, simulator pass, cold/warm serving runs,
# the million-request streaming trace, the capacity search, the fleet
# plan, the faulty fleet week, and the MinuteServe scorer), appending
# this build's measurements to the in-file history of BENCH.json. Fails
# if any zero-allocation path allocates or a bounded-allocation serving
# path exceeds its budget. CI runs the same emitter with -benchiters 1
# as a smoke check.
bench-json:
	$(GO) run ./cmd/mugibench -json -benchfile BENCH.json

# Gate the committed MinuteServe leaderboard golden: regenerate the
# board under the fixed rules and require byte-equality with
# MINUTESERVE.json (verification of the signature included). CI runs
# this on every commit; a legitimate rules or entry change regenerates
# the golden with `make minuteserve-json`.
minuteserve:
	$(GO) run ./cmd/mugibench -minuteserve -check MINUTESERVE.json

# Regenerate and re-sign the committed leaderboard golden after a
# deliberate rules or entry change (review the -diff before committing).
minuteserve-json:
	$(GO) run ./cmd/mugibench -minuteserve -report MINUTESERVE.json

# Godoc coverage gate: every package and every exported facade symbol
# documented. A prerequisite of both lint and docs-check; make dedupes
# it within one invocation, so `make ci` runs it once.
doccheck:
	$(GO) run ./tools/doccheck

# STRICT=1 (set by the ci target) turns a missing staticcheck from a
# skip into a failure, so `make ci` cannot go green without running the
# same check the workflow runs.
lint: doccheck
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needs to run on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif [ -n "$(STRICT)" ]; then \
		echo "staticcheck is required here; install the pinned version with 'make install-staticcheck'"; \
		exit 1; \
	else \
		echo "staticcheck not installed; skipping ('make ci' fails without it; 'make install-staticcheck' installs $(STATICCHECK_VERSION))"; \
	fi

# The pinned staticcheck, the one CI runs; a one-time local install.
install-staticcheck:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

# The repo's contract linter (docs/ANALYSIS.md): determinism, cache-key,
# state-machine exhaustiveness and zero-alloc invariants, proven at lint
# time by tools/mugivet. Zero findings is the gate; waivers in the tree
# carry their reasons inline.
analyze:
	$(GO) run ./tools/mugivet ./...

fmt:
	gofmt -w .

# The code-size number ROADMAP tracks: non-test Go lines in the serving
# stack's packages.
LOC_PKGS = internal/serve internal/fleet internal/autoscale internal/runner
loc:
	@n=$$(for d in $(LOC_PKGS); do ls $$d/*.go; done | grep -v '_test\.go$$' | xargs cat | wc -l); \
		echo "$$n non-test Go lines in $(LOC_PKGS)"

# Documentation gates: godoc coverage (the doccheck prerequisite) and
# docs/*.md code-fence validity (go fences parse; make targets, go run
# paths, CLI flags, and relative links all resolve against the tree).
docs-check: doccheck
	$(GO) run ./tools/docscheck

# The end-to-end benchmark (perfbench/) is a module of its own, so the
# root ./... patterns never build it; vet and test it explicitly so an
# API change it depends on cannot break it unseen.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

ci: STRICT = 1
ci: lint build race bench minuteserve analyze docs-check perfbench-check
