#!/bin/sh
# check.sh — the repo's tier-1 gate, runnable locally and in CI.
#
#   ./scripts/check.sh         # toolchain pin, format, vet, lint, build,
#                              # full tests, race tests, chaos sweep,
#                              # one-shot benchmark smoke + counter gate,
#                              # overload load-test smoke (queryd + queryload)
#
# The race pass covers the packages with real concurrency: the executor
# (internal/exec), whose plan-cache memo is shared by concurrent queries
# on one engine, the engine API that drives it with
# contexts and timeouts (internal/core), the optimizer that concurrent
# queries plan through (internal/planopt — it keeps no shared state, only
# per-call fingerprint maps, and the race pass keeps it that way),
# constraint checking over live engines
# (internal/integrity), and the multi-tenant service tier with its batcher
# and request-level single-flight (internal/service).
set -eu

cd "$(dirname "$0")/.."

# Results must be comparable across machines and sessions: the pinned
# toolchain in go.mod is the one the gate was blessed with.
echo "== toolchain pin"
want=$(awk '/^toolchain /{print $2}' go.mod)
have=$(go env GOVERSION)
if [ -z "$want" ]; then
	echo "go.mod is missing a toolchain pin (expected: toolchain $have)" >&2
	exit 1
fi
if [ "$want" != "$have" ]; then
	echo "toolchain mismatch: go.mod pins $want but go env GOVERSION reports $have" >&2
	exit 1
fi
echo "pinned $want"

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== make lint (repo invariant analyzers)"
# The suite must stay cheap enough to run on every check: budget 30s of
# wall clock for the whole lint step (including the go run build).
lint_start=$(date +%s)
make lint
lint_elapsed=$(( $(date +%s) - lint_start ))
echo "   lint wall clock: ${lint_elapsed}s (budget 30s)"
if [ "$lint_elapsed" -ge 30 ]; then
	echo "lint suite took ${lint_elapsed}s, over the 30s budget" >&2
	exit 1
fi

echo "== go build"
go build ./...

# -shuffle=on randomizes test order within each package, so tests that
# lean on state left behind by an earlier test (a warm package-level cache,
# relation mutation order) fail loudly instead of passing by accident.
echo "== go test (shuffled)"
go test -shuffle=on ./...

echo "== go test -race (exec, core, planopt, integrity, service, shuffled)"
go test -race -shuffle=on ./internal/exec/ ./internal/core/ ./internal/planopt/ ./internal/integrity/ ./internal/service/

echo "== chaos sweep (seeded fault injection under -race)"
CHAOS_SEEDS="${CHAOS_SEEDS:-24}" go test -race -shuffle=on -run Chaos -count=1 ./internal/exec/ ./internal/core/

echo "== bench smoke (every benchmark once + counter gate)"
smoke_log=$(mktemp)
if ! make bench-smoke > "$smoke_log" 2>&1; then
	cat "$smoke_log" >&2
	rm -f "$smoke_log"
	exit 1
fi
# Surface the benchcmp -gate verdict in the check summary instead of
# swallowing it: changed counters, regressions, and the comparison tally.
grep -E 'rows compared|REGRESSION|GATE FAILED|result: | -> |only in ' "$smoke_log" || true
rm -f "$smoke_log"

echo "== loadtest smoke (overload shed + reconcile + clean drain)"
load_log=$(mktemp)
if ! make loadtest-smoke > "$load_log" 2>&1; then
	cat "$load_log" >&2
	rm -f "$load_log"
	exit 1
fi
grep -E 'server shed|reconciliation|LOADTEST-SMOKE' "$load_log" || true
rm -f "$load_log"

echo "ALL CHECKS PASSED"
