#!/bin/sh
# loc.sh — non-test Go lines per package and for the whole repository.
#
#   sh scripts/loc.sh          # the working tree
#   sh scripts/loc.sh REV      # the files committed at git revision REV
#
# Each line is "<lines> <package directory>"; the last line is the
# repository total. The count is plain `wc -l` over every .go file that
# is not a _test.go file, so blank lines and comments count too. A
# revision is read with `git ls-tree`/`git show`; nothing is checked out.
set -eu
cd "$(dirname "$0")/.."

if [ $# -eq 0 ]; then
	files() { find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*'; }
	count() { cat "$@" | wc -l; }
else
	if ! git rev-parse -q --verify "$1^{commit}" >/dev/null; then
		echo "usage: sh scripts/loc.sh [REV]: unknown revision $1" >&2
		exit 2
	fi
	rev=$1
	files() { git ls-tree -r --name-only "$rev" | grep '\.go$' | grep -v '_test\.go$' | sed 's|^|./|'; }
	count() { for f; do git show "$rev:${f#./}"; done | wc -l; }
fi

all=$(files)
total=0
for dir in $(printf '%s\n' "$all" | xargs dirname | sort -u); do
	n=$(count $(printf '%s\n' "$all" | awk -v d="$dir" '{ f = $0; sub(/\/[^\/]*$/, "", f) } f == d'))
	printf '%7d %s\n' "$n" "${dir#./}"
	total=$((total + n))
done
printf '%7d total\n' "$total"
