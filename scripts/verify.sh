#!/bin/sh
# verify.sh — the repo's tier-1 gate plus the concurrency gate.
#
# Tier 1 (ROADMAP.md): everything must build and the full test suite
# must pass. A cross-compile keeps the non-unix heap fallback and the
# darwin heap mapping (DESIGN.md §5) building. On top of that, the perfbench module must build and pass
# its smoke test (every campaign cell's counters match perfbench/pins.go),
# the packages that share state across goroutines — the harness
# (solo-time singleflight, pooled CPUs), the scheduler and the campaign
# service's cell executor — must pass under the race detector at short
# scale,
# the instrumented build (-tags checks, DESIGN.md §6) must pass its
# probe suite with every invariant armed, the fault-injection build
# (-tags faults, DESIGN.md §8) must pass its recovery suite, an
# interrupted journaled campaign must resume byte-identically, the
# seating-policy subsystem (DESIGN.md §12) must be deterministic with
# -policy naive byte-identical to the seed scheduler, and the campaign
# daemon (DESIGN.md §13) must survive kill -9 with a byte-identical
# resume, serve identical resubmissions from its cache, and reject
# overload with 429, and write the same campaign identity as the CLI
# (scripts/service_smoke.sh), the grid tools must refuse the
# javasmt-only -cores/-contexts flags, a budgeted report must
# fail every cell at its cycle budget, and the JVM memory
# model (DESIGN.md §14) must hold its litmus matrix — forbidden
# outcomes never, TSO relaxations in the fence-free controls — under
# the race detector (scripts/litmus.sh).
set -eu
cd "$(dirname "$0")/.."

echo "== build =="
go build ./...

echo "== vet =="
go vet ./...

echo "== cross-compile (non-unix heap fallback, darwin mapping) =="
GOOS=windows go build ./...
GOOS=darwin go vet ./internal/jvm

echo "== tests =="
go test ./...

echo "== perfbench smoke (benchmark builds, every cell matches its pin) =="
(cd perfbench && go test .)

echo "== obs disabled path allocates nothing =="
go test ./internal/core -run TestObsDisabledAllocFree -count=1

echo "== sampled accuracy (goldens within declared tolerance) =="
go test ./internal/harness ./internal/sampling -run Sampled -count=1

echo "== race (harness + sched + service, short) =="
go test -race -short ./internal/harness/... ./internal/sched/... ./internal/service/...

echo "== invariant probes (-tags checks, short) =="
go build -tags checks ./...
go test -tags checks -short ./...

echo "== fault injection (-tags faults, short) =="
go build -tags faults ./...
go test -tags faults -short ./...

echo "== journal/resume smoke (interrupt + resume is byte-identical) =="
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/pairings" ./cmd/pairings
"$tmp/pairings" -all -benches compress,mpegaudio,db -runs 2 -j 8 -q \
    > "$tmp/want.txt"
# Journaled run, interrupted mid-campaign. If the machine is fast
# enough that it finishes before the signal, the resume below still
# exercises the all-cells-cached path, so the check stays meaningful.
"$tmp/pairings" -all -benches compress,mpegaudio,db -runs 2 -j 8 -q \
    -journal "$tmp/journal" > /dev/null 2>&1 &
camp=$!
sleep 2
kill -INT "$camp" 2>/dev/null || true
wait "$camp" 2>/dev/null || true
"$tmp/pairings" -all -benches compress,mpegaudio,db -runs 2 -j 8 -q \
    -journal "$tmp/journal" -resume > "$tmp/got.txt"
diff -u "$tmp/want.txt" "$tmp/got.txt"

echo "== scheduling (policy determinism + naive equivalence, -tags checks) =="
go test -tags checks ./internal/simos -run 'Policy|Runq|Migrations|Symbiotic|RoundRobin|Novices|Done' -count=1
go test -tags checks ./internal/harness -run 'TestPolicyNaiveEquivalence|TestPolicySweepDeterminism|TestPolicySweepJournalResume|TestServerMixShape|TestRunMix' -count=1

echo "== policy sweep smoke (2x2 server mix, all policies) =="
go run ./cmd/sweep -policies all -mixes 8 -geos 2x2

echo "== grid tools refuse -cores/-contexts (only javasmt takes a geometry) =="
go build -o "$tmp/sweep" ./cmd/sweep
code=0
"$tmp/sweep" -cores 2 -contexts 2 > /dev/null 2>&1 || code=$?
if [ "$code" -ne 2 ]; then
	echo "verify: sweep -cores 2 -contexts 2 exited $code, want 2 (usage error)" >&2
	exit 1
fi

echo "== sampled journal smoke (resume works, cross-mode refused) =="
"$tmp/pairings" -all -benches compress,mpegaudio -runs 2 -j 8 -q \
    -sim-mode sampled > "$tmp/swant.txt"
"$tmp/pairings" -all -benches compress,mpegaudio -runs 2 -j 8 -q \
    -sim-mode sampled -journal "$tmp/sjournal" > /dev/null 2>&1 &
camp=$!
sleep 1
kill -INT "$camp" 2>/dev/null || true
wait "$camp" 2>/dev/null || true
"$tmp/pairings" -all -benches compress,mpegaudio -runs 2 -j 8 -q \
    -sim-mode sampled -journal "$tmp/sjournal" -resume > "$tmp/sgot.txt"
diff -u "$tmp/swant.txt" "$tmp/sgot.txt"
# A full-mode resume against the sampled journal, and a sampled resume
# against the full-mode journal above, must both be refused: counters
# from the two modes must never mix in one campaign.
if "$tmp/pairings" -all -benches compress,mpegaudio -runs 2 -j 8 -q \
    -journal "$tmp/sjournal" -resume > /dev/null 2>&1; then
	echo "verify: full-mode resume of a sampled journal was not refused" >&2
	exit 1
fi
if "$tmp/pairings" -all -benches compress,mpegaudio,db -runs 2 -j 8 -q \
    -sim-mode sampled -journal "$tmp/journal" -resume > /dev/null 2>&1; then
	echo "verify: sampled resume of a full-mode journal was not refused" >&2
	exit 1
fi

echo "== failure path (every report cell fails at its cycle budget) =="
# The four paper drivers (characterization, pairings, fig10, fig12)
# under a 1000-cycle budget: the run exits 1 and every failure line
# names the budget.
go build -o "$tmp/report" ./cmd/report
code=0
"$tmp/report" -q -runs 2 -cycle-budget 1000 > /dev/null 2> "$tmp/fail.txt" || code=$?
if [ "$code" -ne 1 ]; then
	echo "verify: budgeted report exited $code, want 1" >&2
	exit 1
fi
grep -q 'exceeded cycle budget' "$tmp/fail.txt"
if grep '^  ' "$tmp/fail.txt" | grep -v 'exceeded cycle budget'; then
	echo "verify: a budgeted report cell failed for another reason" >&2
	exit 1
fi

echo "== campaign service smoke (kill -9 resume, cache, backpressure) =="
sh scripts/service_smoke.sh

echo "== memory model (litmus matrix + sync-stress smoke) =="
sh scripts/litmus.sh

echo "verify: OK"
