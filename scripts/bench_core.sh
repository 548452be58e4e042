#!/bin/sh
# bench_core.sh — run the core cycle-loop, cache-lookup, functional-mode
# and sampled-campaign benchmarks with -benchmem.
#
#   scripts/bench_core.sh [count]
#       Ledger mode: write the results to BENCH_core.json at the repo
#       root. count is the repetition count (default 5, the minimum for
#       a meaningful spread).
#   scripts/bench_core.sh -base REV [-bench REGEX] [count]
#       Paired mode: compare revision REV against the working tree and
#       print a JSON verdict on stdout (raw benchmark lines go to
#       stderr). -bench narrows the benchmark set; count is the number
#       of alternations (default 5).
#
# Ledger mode: each entry records the median over the repetitions plus
# the min/max spread of ns/op and MB/s, so a claimed change can be read
# against the run-to-run noise (no benchstat needed). Keys are written
# in sorted order, so regenerating the file yields a readable diff.
#
# Every simulation benchmark reports MB/s at 1 byte per µop, so the MB/s
# columns are directly comparable across entries and against the seed
# baseline; the derived "speedups" object at the end of the JSON records
# the ratios, taken between medians, that the sampling and cycle-loop
# work is accountable to (DESIGN.md §10, §11).
#
# Paired mode exists because absolute rates are not comparable across
# ledger regenerations on a shared host, whose speed drifts by tens of
# percent over minutes. It snapshots REV with git archive, builds one
# go test -c binary per package for REV and for the working tree, and
# then runs every top-level benchmark on both sides back to back,
# swapping which side goes first on each alternation, so drift hits
# both sides alike. Per benchmark it reports the median of the
# per-alternation ratios base_ns/head_ns ("speedup": above 1 means the
# working tree is faster), their min/max, and "head_wins": in how many
# alternations the working tree was faster. A benchmark REV lacks runs
# on REV's sources with the working tree's _test.go files of its
# package laid over them; if that overlay does not build, the benchmark
# is reported as {"comparable": false} and not run.
set -eu
cd "$(dirname "$0")/.."

pattern='BenchmarkSimSpeed|BenchmarkInterp|BenchmarkCacheAccess|BenchmarkHierarchyData|BenchmarkFunctionalSpeed|BenchmarkSampledCampaign|BenchmarkGeometryScaling|BenchmarkPolicySweep|BenchmarkSyncStress'
pkgs='core cache jvm sampling harness'
base=''
while [ $# -gt 0 ]; do
	case "$1" in
	-base) base="$2"; shift 2 ;;
	-bench) pattern="$2"; shift 2 ;;
	*) break ;;
	esac
done
count="${1:-5}"

# awklib is shared by both modes: sortn sorts a[1..n] ascending
# (insertion sort: n is the repetition count, or the number of
# benchmarks); median sorts a[1..n] and returns its median.
awklib='
function sortn(a, n,    i, j, v) {
	for (i = 2; i <= n; i++) {
		v = a[i]
		for (j = i - 1; j >= 1 && a[j] > v; j--) a[j+1] = a[j]
		a[j+1] = v
	}
}
function median(a, n) {
	sortn(a, n)
	return (n % 2) ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2
}'

if [ -n "$base" ]; then
	tmp="$(mktemp -d)"
	trap 'rm -rf "$tmp"' EXIT
	mkdir "$tmp/base"
	git archive "$base" | tar -x -C "$tmp/base"
	head="$(pwd)"
	: >"$tmp/raw"
	for p in $pkgs; do
		go test -c -o "$tmp/head-$p.test" "./internal/$p/"
		"$tmp/head-$p.test" -test.list "$pattern" | grep '^Benchmark' >"$tmp/head-$p.list" || true
		: >"$tmp/base-$p.list"
		if (cd "$tmp/base" && go test -c -o "$tmp/base-$p.test" "./internal/$p/") >/dev/null 2>&1; then
			"$tmp/base-$p.test" -test.list "$pattern" | grep '^Benchmark' >"$tmp/base-$p.list" || true
		fi
		# Benchmarks REV lacks run on the overlay: REV's sources with
		# this package's _test.go files taken from the working tree.
		grep -vxF -f "$tmp/base-$p.list" "$tmp/head-$p.list" >"$tmp/overlay-$p.list" || continue
		ov="$tmp/overlay-$p"
		mkdir "$ov"
		git archive "$base" | tar -x -C "$ov"
		mkdir -p "$ov/internal/$p"
		rm -f "$ov/internal/$p/"*_test.go
		cp "internal/$p/"*_test.go "$ov/internal/$p/"
		if ! (cd "$ov" && go test -c -o "$tmp/overlay-$p.test" "./internal/$p/") >/dev/null 2>&1; then
			sed 's/^/nc 0 /' "$tmp/overlay-$p.list" >>"$tmp/raw"
			: >"$tmp/overlay-$p.list"
		fi
	done
	i=1
	while [ "$i" -le "$count" ]; do
		order='base head'
		[ $((i % 2)) -eq 0 ] && order='head base'
		for p in $pkgs; do
			for b in $(cat "$tmp/head-$p.list"); do
				bin="base-$p" bdir="$tmp/base"
				if grep -qxF "$b" "$tmp/overlay-$p.list"; then
					bin="overlay-$p" bdir="$tmp/overlay-$p"
				elif ! grep -qxF "$b" "$tmp/base-$p.list"; then
					continue # not comparable, recorded above
				fi
				for side in $order; do
					dir="$head" exe="head-$p"
					[ "$side" = base ] && dir="$bdir" exe="$bin"
					(cd "$dir/internal/$p" && "$tmp/$exe.test" -test.run '^$' \
						-test.bench "^$b\$" -test.benchmem) |
						sed -n "s/^Benchmark/$side $i Benchmark/p"
				done
			done
		done
		i=$((i + 1))
	done >>"$tmp/raw"
	cat "$tmp/raw" >&2
	awk -v base="$(git rev-parse --short "$base")" \
		-v head="$(git describe --always --dirty)" -v count="$count" "$awklib"'
{
	side = $1; i = $2; name = $3
	sub(/-[0-9]+$/, "", name)
	if (!(name in seen)) { seen[name] = 1; names[++nnames] = name }
	if (side == "nc") { nc[name] = 1; next }
	ns[side, name, i] = $5
}
END {
	printf "{\n  \"base\": \"%s\", \"head\": \"%s\", \"alternations\": %d", base, head, count
	sortn(names, nnames)
	for (j = 1; j <= nnames; j++) {
		name = names[j]
		if (name in nc) { printf ",\n  \"%s\": {\"comparable\": false}", name; continue }
		n = 0; wins = 0
		for (i = 1; i <= count; i++) {
			if (!(("base", name, i) in ns) || !(("head", name, i) in ns)) continue
			b = ns["base", name, i]; h = ns["head", name, i]
			bs[++n] = b; hs[n] = h; rs[n] = b / h
			if (h < b) wins++
		}
		if (n == 0) { printf ",\n  \"%s\": {\"runs\": 0}", name; continue }
		lo = hi = rs[1]
		for (i = 2; i <= n; i++) { if (rs[i] < lo) lo = rs[i]; if (rs[i] > hi) hi = rs[i] }
		printf ",\n  \"%s\": {\"runs\": %d, \"base_ns\": %.1f, \"head_ns\": %.1f, \"speedup\": %.3f, \"speedup_min\": %.3f, \"speedup_max\": %.3f, \"head_wins\": %d}",
			name, n, median(bs, n), median(hs, n), median(rs, n), lo, hi, wins
	}
	print "\n}"
}' "$tmp/raw"
	exit 0
fi

raw="$(go test -run '^$' -bench "$pattern" -benchmem -count="$count" \
	./internal/core/ ./internal/cache/ ./internal/jvm/ ./internal/sampling/ ./internal/harness/)"
echo "$raw"

echo "$raw" | awk "$awklib"'
# stat sets med/lo/hi from the n values vals[name, 1..n].
function stat(vals, name, n,    i, a) {
	for (i = 1; i <= n; i++) a[i] = vals[name, i] + 0
	med = median(a, n)
	lo = a[1]; hi = a[n]
}
# mb returns the median MB/s of one benchmark, 0 when absent.
function mb(name) {
	if (!(name in n) || !hasmb[name]) return 0
	stat(mbs, name, n[name])
	return med
}
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	if (!(name in n)) names[++nnames] = name
	k = ++n[name]
	ns[name, k] = $3
	for (i = 4; i <= NF; i++) {
		if ($(i+1) == "B/op")       bop[name] += $i
		if ($(i+1) == "allocs/op")  aop[name] += $i
		if ($(i+1) == "MB/s")       { mbs[name, k] = $i; hasmb[name] = 1 }
	}
}
END {
	print "{"
	# Seed-commit baseline (same machine class, one run), kept here so
	# the file always carries the before/after comparison.
	printf "  \"seed_BenchmarkSimSpeed\": {\"ns_per_op\": 187330123, \"bytes_per_op\": 1350786, \"allocs_per_op\": 44.0, \"mb_per_s\": 10.68}"
	sortn(names, nnames)
	for (j = 1; j <= nnames; j++) {
		name = names[j]
		c = n[name]
		stat(ns, name, c)
		printf ",\n  \"%s\": {\"runs\": %d, \"ns_per_op\": %.0f, \"ns_min\": %.0f, \"ns_max\": %.0f, \"bytes_per_op\": %.0f, \"allocs_per_op\": %.1f",
			name, c, med, lo, hi, bop[name]/c, aop[name]/c
		if (hasmb[name]) {
			stat(mbs, name, c)
			printf ", \"mb_per_s\": %.2f, \"mb_min\": %.2f, \"mb_max\": %.2f", med, lo, hi
		}
		printf "}"
	}
	# Derived ratios: every MB/s figure is 1 byte/µop, so these are
	# µop-rate speedups. seed_mb is the seed-commit detailed-mode rate.
	seed_mb = 10.68
	camp_full = mb("BenchmarkSampledCampaign/full")
	camp_samp = mb("BenchmarkSampledCampaign/sampled")
	func_warm = mb("BenchmarkFunctionalSpeed/warm")
	func_ff = mb("BenchmarkFunctionalSpeed/ff")
	if (camp_full > 0 && camp_samp > 0) {
		printf ",\n  \"speedups\": {"
		printf "\"sampled_vs_full\": %.2f", camp_samp / camp_full
		printf ", \"sampled_vs_seed\": %.2f", camp_samp / seed_mb
		if (func_warm > 0) printf ", \"functional_warm_vs_seed\": %.2f", func_warm / seed_mb
		if (func_ff > 0) printf ", \"functional_ff_vs_seed\": %.2f", func_ff / seed_mb
		# Geometry cost ratio: µop-rate at the 16-context CMP relative to
		# the paper HT shape (below 1.0 = per-µop slowdown from width).
		geo_ht = mb("BenchmarkGeometryScaling/1x2")
		geo_cmp = mb("BenchmarkGeometryScaling/4x4")
		if (geo_ht > 0 && geo_cmp > 0) printf ", \"geometry_4x4_vs_1x2\": %.2f", geo_cmp / geo_ht
		# Policy-path tax: metric-driven seating relative to the naive
		# fast path on the same mix (below 1.0 = SchedView scan cost).
		pol_naive = mb("BenchmarkPolicySweep/naive")
		pol_symb = mb("BenchmarkPolicySweep/symbiotic-ipc")
		if (pol_naive > 0 && pol_symb > 0) printf ", \"policy_symbiotic_vs_naive\": %.2f", pol_symb / pol_naive
		printf "}"
	}
	print "\n}"
}' >BENCH_core.json

echo "wrote BENCH_core.json"
