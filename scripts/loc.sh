#!/bin/sh
# loc.sh — non-test Go lines per package and for the whole repository.
#
#   sh scripts/loc.sh
#
# Each line is "<lines> <package directory>"; the last line is the
# repository total. The count is plain `wc -l` over every .go file that
# is not a _test.go file, so blank lines and comments count too.
set -eu
cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' -exec dirname {} + |
	sort -u | sed 's|^\./||' |
	while read -r dir; do
		n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
		printf '%7d %s\n' "$n" "$dir"
	done
total=$(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' -exec cat {} + | wc -l)
printf '%7d total\n' "$total"
