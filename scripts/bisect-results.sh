#!/usr/bin/env bash
# bisect-results.sh — does a commit still produce the committed results?
#
# Builds COMMIT (default HEAD) in a throwaway git worktree, runs one figure at
# a chosen scale with `figures -csv`, and compares chosen columns of the rows
# whose "figure,series" matches a pattern against a reference CSV, row by row
# (figure, series and offered load name a row). The exit status is what
# `git bisect run` reads: 0 the rows match, 1 they differ, 125 the commit
# cannot be built or run (bisect skips it); a usage error exits 128, which
# stops a bisection.
#
#   scripts/bisect-results.sh [-f FIG] [-s quick|full] [-r REF.csv]
#                             [-m REGEX] [-c COLUMNS] [COMMIT]
#
#   -f FIG      the figure to run (figures -fig), default 5
#   -s SCALE    quick (figures -quick, the default) or full
#   -r REF      the reference CSV, default results/quick.csv of the checkout
#   -m REGEX    rows whose "figure,series" matches REGEX (awk), default ^figFIG,
#   -c COLUMNS  comma-separated column names to compare, default
#               accepted,latency
#
# Only the local history is needed. `git bisect run` checks commits out in
# this checkout, so run a copy of the script and of the reference from
# outside it:
#
#   cp scripts/bisect-results.sh results/quick.csv /tmp/
#   git bisect start HEAD <a good commit>
#   git bisect run /tmp/bisect-results.sh -r /tmp/quick.csv -f 5 -c latency
#   git bisect reset
set -euo pipefail

fig=5 scale=quick ref= match= cols=accepted,latency
usage() { awk 'NR > 1 && !/^#/ { exit } NR > 1' "$0" >&2; exit 128; }
while getopts f:s:r:m:c:h opt; do
	case $opt in
	f) fig=$OPTARG ;;
	s) scale=$OPTARG ;;
	r) ref=$OPTARG ;;
	m) match=$OPTARG ;;
	c) cols=$OPTARG ;;
	*) usage ;;
	esac
done
shift $((OPTIND - 1))
[ $# -le 1 ] || usage
case $scale in
quick) scaleflag=-quick ;;
full) scaleflag= ;;
*) usage ;;
esac

repo=$(git rev-parse --show-toplevel)
ref=$(realpath "${ref:-$repo/results/quick.csv}")
[ -r "$ref" ] || { echo "bisect-results: no reference CSV $ref" >&2; exit 128; }
match=${match:-^fig$fig,}
sha=$(git -C "$repo" rev-parse --verify --quiet "${1:-HEAD}^{commit}") ||
	{ echo "bisect-results: no commit ${1:-HEAD}" >&2; exit 128; }

work=$(mktemp -d "${TMPDIR:-/tmp}/bisect-results.XXXXXX")
cleanup() {
	git -C "$repo" worktree remove --force "$work/tree" >/dev/null 2>&1 || true
	rm -rf "$work"
	git -C "$repo" worktree prune
}
trap cleanup EXIT

echo "bisect-results: ${sha:0:12} fig $fig ($scale) columns $cols, rows /$match/" >&2
git -C "$repo" worktree add --detach --quiet "$work/tree" "$sha" || exit 125
(cd "$work/tree" && go build -o "$work/figures" ./cmd/figures) >&2 || exit 125
(cd "$work/tree" && "$work/figures" $scaleflag -fig "$fig" -csv "$work/got.csv" >/dev/null) || exit 125

# pick prints "figure,series,offered" and the chosen columns of each matching
# row of a CSV with a header line, or fails naming a column it lacks.
pick() {
	awk -F, -v cols="$cols" -v re="$match" '
		NR == 1 {
			n = split(cols, want, ",")
			for (i = 1; i <= NF; i++) at[$i] = i
			for (j = 1; j <= n; j++) if (!(want[j] in at)) {
				print "bisect-results: " FILENAME " has no column " want[j] > "/dev/stderr"
				exit 2
			}
			next
		}
		($1 "," $2) ~ re {
			line = $1 "," $2 "," $3
			for (j = 1; j <= n; j++) line = line "," $(at[want[j]])
			print line
		}' "$1"
}
pick "$ref" >"$work/want" || exit 128
pick "$work/got.csv" >"$work/got" || exit 125
if [ ! -s "$work/want" ]; then
	echo "bisect-results: no row of $ref matches /$match/" >&2
	exit 128
fi
if diff -u --label reference --label "${sha:0:12}" "$work/want" "$work/got" >&2; then
	echo "bisect-results: ${sha:0:12} matches: $(wc -l <"$work/want") rows" >&2
	exit 0
fi
exit 1
