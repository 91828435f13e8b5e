GO ?= go

.PHONY: check fmt vet build test lint race chaos bench bench-smoke bench-baseline repro smoke-serve loadtest-smoke

## check: the tier-1 gate — format, vet, lint, build, tests, race tests
check:
	./scripts/check.sh

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## lint: the repo's own invariant checkers (internal/analyzers via
## cmd/lintrepro) — iterator lifecycle, governor accounting, error
## taxonomy, wire-schema drift. Non-zero exit on any finding.
lint:
	$(GO) run ./cmd/lintrepro ./...

## race: race-detector pass over the concurrent packages
race:
	$(GO) test -race ./internal/exec/ ./internal/core/ ./internal/planopt/ ./internal/integrity/ ./internal/service/

## chaos: deep seeded fault-injection sweep under -race (CHAOS_SEEDS
## overrides the seed count; check.sh runs a shorter sweep of 24)
chaos:
	CHAOS_SEEDS=$${CHAOS_SEEDS:-64} $(GO) test -race -run Chaos -count=1 -v ./internal/exec/ ./internal/core/

## bench: the paper's figure/experiment benchmarks
bench:
	$(GO) test -bench=. -benchmem .

## bench-smoke: run every benchmark exactly once — catches bit-rotted
## benchmark code without paying for real measurements — then regenerate
## the deterministic E13/E15/E16 counters and gate them against the committed
## baseline: any counter more than 10% worse than bench/baseline.jsonl
## fails the target (and with it ./scripts/check.sh).
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...
	$(GO) run ./cmd/benchrepro -only e13,e15,e16 -json bench/current.jsonl > /dev/null
	./scripts/benchcmp.sh -gate 10 bench/baseline.jsonl bench/current.jsonl

## bench-baseline: re-bless the counters the bench-smoke gate compares
## against (commit the result deliberately, with the change that moved them)
bench-baseline:
	$(GO) run ./cmd/benchrepro -only e13,e15,e16 -json bench/baseline.jsonl > /dev/null

## repro: regenerate every paper figure and experiment table
repro:
	$(GO) run ./cmd/benchrepro

## smoke-serve: boot queryd on a random port, run one query per tenant and
## fetch /stats through queryctl's remote mode, then drain it with SIGINT.
## An end-to-end liveness probe for the service tier; not part of check.sh.
smoke-serve:
	./scripts/smoke_serve.sh

## loadtest-smoke: boot an easy-to-overload queryd (two slots, no cache,
## tight sojourn target, one injected fault) and storm it with queryload;
## asserts sheds happened, counters reconcile, the fault did not kill the
## daemon, and SIGINT drains cleanly. Part of check.sh.
loadtest-smoke:
	./scripts/loadtest_smoke.sh
