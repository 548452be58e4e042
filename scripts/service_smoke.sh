#!/bin/sh
# service_smoke.sh — end-to-end smoke for the campaign daemon
# (cmd/javasmtd, DESIGN.md §13), run by scripts/verify.sh and the CI
# `service` job:
#
#   1. Run a reference sweep single-process with a journal.
#   2. Start the daemon, submit the same campaign over HTTP, and kill -9
#      the daemon once the job's ledger holds a committed cell.
#   3. Restart the daemon over the same data directory, require it to
#      resume at least one ledgered cell, wait for the resumed job to
#      finish, and require its ledger to be byte-identical (as a line
#      set) to the reference journal, and its meta.json config equal to
#      the reference journal's.
#   4. Re-submit the identical campaign and require every cell to be
#      served from the result cache.
#   5. Drain the daemon with SIGTERM and check its clean shutdown.
#   6. Start a daemon with -max-jobs 1 and require the second
#      concurrent submission to be rejected with HTTP 429 while the
#      first keeps running.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
dpid=""
cleanup() {
	[ -n "$dpid" ] && kill -9 "$dpid" 2>/dev/null
	rm -rf "$tmp"
}
trap cleanup EXIT

SPEC='{"kind":"sweep","benchmarks":["MolDyn"],"threads":[1,2,4,8],"scale":"small"}'

go build -o "$tmp/javasmtd" ./cmd/javasmtd
go build -o "$tmp/sweep" ./cmd/sweep

echo "-- reference single-process run"
"$tmp/sweep" -bench MolDyn -threads 1,2,4,8 -scale small \
    -journal "$tmp/ref" > /dev/null

# start_daemon DATA_DIR [extra flags...]: starts javasmtd, waits for
# the addr file, sets $dpid and $addr.
start_daemon() {
	data=$1; shift
	rm -f "$data/addr"
	"$tmp/javasmtd" -data "$data" -addr 127.0.0.1:0 -workers 1 -q "$@" &
	dpid=$!
	i=0
	while [ ! -s "$data/addr" ]; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "service_smoke: daemon did not write $data/addr" >&2
			exit 1
		fi
		sleep 0.1
	done
	addr=$(cat "$data/addr")
}

# job_field ID FIELD: one field of GET /jobs/ID.
job_field() {
	curl -sf "http://$addr/jobs/$1" |
		python3 -c "import sys,json; print(json.load(sys.stdin)[\"$2\"])"
}

# wait_done ID: polls until the job's state is terminal.
wait_done() {
	i=0
	while :; do
		state=$(job_field "$1" state)
		[ "$state" = running ] || break
		i=$((i + 1))
		if [ "$i" -gt 600 ]; then
			echo "service_smoke: job $1 did not finish" >&2
			exit 1
		fi
		sleep 0.5
	done
	if [ "$state" != done ]; then
		echo "service_smoke: job $1 ended $state" >&2
		exit 1
	fi
}

echo "-- daemon run, killed -9 once a cell is in the ledger"
start_daemon "$tmp/svc"
curl -sf -X POST "http://$addr/jobs" -H 'Content-Type: application/json' \
    -d "$SPEC" > /dev/null
# Kill only after the job's ledger holds a committed cell, so the
# restart below has ledgered cells to replay beside re-simulated ones
# however fast or slow the host is.
i=0
until grep -qs '"status":"ok"' "$tmp/svc/jobs/j0001/journal.jsonl"; do
	i=$((i + 1))
	if [ "$i" -gt 1200 ]; then
		echo "service_smoke: no cell committed to the ledger within 120 s" >&2
		exit 1
	fi
	sleep 0.1
done
kill -9 "$dpid"
wait "$dpid" 2>/dev/null || true
dpid=""

echo "-- restart resumes the job from its ledger"
start_daemon "$tmp/svc"
wait_done j0001
resumed=$(job_field j0001 resumed 2>/dev/null || echo 0)
echo "   resumed $resumed ledgered cells, re-simulated the rest"
if [ "$resumed" -lt 1 ]; then
	echo "service_smoke: restart resumed no ledgered cell" >&2
	exit 1
fi

sort "$tmp/ref/journal.jsonl" > "$tmp/ref.sorted"
sort "$tmp/svc/jobs/j0001/journal.jsonl" > "$tmp/job.sorted"
diff -u "$tmp/ref.sorted" "$tmp/job.sorted"
echo "   resumed ledger is byte-identical to the single-process reference"

# One campaign description: the CLI's journal and the daemon's ledger
# carry the same identity (service.Plan.Identity).
meta_config() {
	python3 -c "import sys,json; print(json.load(open(sys.argv[1]))['config'])" "$1"
}
cli_config=$(meta_config "$tmp/ref/meta.json")
job_config=$(meta_config "$tmp/svc/jobs/j0001/meta.json")
if [ "$cli_config" != "$job_config" ]; then
	echo "service_smoke: CLI journal config \"$cli_config\" != daemon ledger config \"$job_config\"" >&2
	exit 1
fi
echo "   CLI journal and daemon ledger share the identity \"$cli_config\""

echo "-- identical resubmission is served from the result cache"
id=$(curl -sf -X POST "http://$addr/jobs" -H 'Content-Type: application/json' \
    -d "$SPEC" | python3 -c 'import sys,json; print(json.load(sys.stdin)["id"])')
wait_done "$id"
cached=$(job_field "$id" cached)
total=$(job_field "$id" total)
if [ "$cached" != "$total" ]; then
	echo "service_smoke: $cached/$total cells cached, want all" >&2
	exit 1
fi

echo "-- SIGTERM drains cleanly"
kill -TERM "$dpid"
wait "$dpid" 2>/dev/null || true
dpid=""
if [ -f "$tmp/svc/addr" ]; then
	echo "service_smoke: addr file survived clean shutdown" >&2
	exit 1
fi

echo "-- overload is rejected with 429 while admitted work progresses"
start_daemon "$tmp/svc2" -max-jobs 1
curl -sf -X POST "http://$addr/jobs" -H 'Content-Type: application/json' \
    -d "$SPEC" > /dev/null
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$addr/jobs" \
    -H 'Content-Type: application/json' -d "$SPEC")
if [ "$code" != 429 ]; then
	echo "service_smoke: over-capacity submit returned HTTP $code, want 429" >&2
	exit 1
fi
wait_done j0001
kill -TERM "$dpid"
wait "$dpid" 2>/dev/null || true
dpid=""

echo "service_smoke: OK"
