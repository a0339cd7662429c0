GO ?= go

# Pin the linter so local runs and CI agree on the finding set.
STATICCHECK_VERSION ?= 2024.1.1
STATICCHECK ?= staticcheck

.PHONY: build test race vet lint check bench goldens reach knobs

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# lint runs staticcheck at the pinned version. Install it once with:
#   go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
lint:
	@command -v $(STATICCHECK) >/dev/null 2>&1 || { \
		echo "lint: staticcheck not found; install with:" >&2; \
		echo "  go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)" >&2; \
		exit 1; }
	$(STATICCHECK) ./...

# check is the full pre-merge gate: build, vet, and the test suite
# under the race detector (instrumentation runs concurrently with the
# debug HTTP endpoints, so -race is part of the bar).
check: scripts/check.sh
	./scripts/check.sh

bench:
	$(GO) run ./cmd/vmbench -series smoke

# reach lists the non-test functions no binary links (cmd/*, examples/*
# and the bench module, built with inlining off) and fails on one that
# scripts/reach.allow does not name with the test that needs it.
reach:
	./scripts/reach.sh --check

# knobs lists the exported struct fields no product code outside their
# package sets (only tests or the bench module do, or nothing does) and
# fails on one that scripts/knobs.allow does not name with its reason.
knobs:
	$(GO) test -count=1 ./scripts/knobs

# goldens rewrites the behaviour pins — internal/workload/testdata/
# fingerprints.golden and cmd/vmbench/testdata/{smoke,paper}.golden —
# from this tree. Run the two tests without -update first: they list
# every scenario and experiment block that diverges, and only those may
# move; the reason goes in CHANGES.md. internal/sim/testdata/order.golden
# is not one of them: it pins the kernel itself (see order_test.go).
goldens:
	$(GO) test ./internal/workload -run 'TestScenariosPassGateAndMatchGolden$$' -update
	$(GO) test ./cmd/vmbench -run 'TestAllExperimentsMatchGolden$$' -update

# smoke-<scenario> runs one gated scenario at CI scale through the
# generic gate runner: it exits nonzero unless the scenario's invariants
# hold and a same-seed rerun is byte-identical. `go run ./cmd/vmbench
# -list` names the scenarios, the paper's own experiments first; what
# each one gates is its result's Checks in internal/workload.
smoke-%:
	$(GO) run ./cmd/vmbench -exp $* -series smoke
