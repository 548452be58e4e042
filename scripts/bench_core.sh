#!/bin/sh
# bench_core.sh — run the core cycle-loop, cache-lookup, functional-mode
# and sampled-campaign benchmarks with -benchmem and write the results to
# BENCH_core.json at the repo root. Pass a repetition count as $1
# (default 5, the minimum for a meaningful spread).
#
# Each entry records the median over the repetitions plus the min/max
# spread of ns/op and MB/s, so a claimed change can be read against the
# run-to-run noise (no benchstat needed). Keys are written in sorted
# order, so regenerating the file yields a readable diff.
#
# Every simulation benchmark reports MB/s at 1 byte per µop, so the MB/s
# columns are directly comparable across entries and against the seed
# baseline; the derived "speedups" object at the end of the JSON records
# the ratios, taken between medians, that the sampling and cycle-loop
# work is accountable to (DESIGN.md §10, §11).
set -eu
cd "$(dirname "$0")/.."

count="${1:-5}"
raw="$(go test -run '^$' -bench 'BenchmarkSimSpeed|BenchmarkCacheAccess|BenchmarkHierarchyData|BenchmarkFunctionalSpeed|BenchmarkSampledCampaign|BenchmarkGeometryScaling|BenchmarkPolicySweep|BenchmarkSyncStress' \
	-benchmem -count="$count" ./internal/core/ ./internal/cache/ ./internal/sampling/ ./internal/harness/)"
echo "$raw"

echo "$raw" | awk '
# sortn sorts a[1..n] ascending (insertion sort: n is the repetition
# count, or the number of benchmarks).
function sortn(a, n,    i, j, v) {
	for (i = 2; i <= n; i++) {
		v = a[i]
		for (j = i - 1; j >= 1 && a[j] > v; j--) a[j+1] = a[j]
		a[j+1] = v
	}
}
# stat sets med/lo/hi from the n values vals[name, 1..n].
function stat(vals, name, n,    i, a) {
	for (i = 1; i <= n; i++) a[i] = vals[name, i] + 0
	sortn(a, n)
	lo = a[1]; hi = a[n]
	med = (n % 2) ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2
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
