#!/usr/bin/env bash
# bench-ab.sh — an A/B of the kernel micro-benchmarks: the test binaries of
# internal/mesh, internal/delaunay and internal/meshgen built at a base
# revision and at the working tree, run in turn N times each (the order alternating, so that a
# drift of the host falls on both sides alike), and each benchmark's median
# per side with the ratio printed at the end. One pair of runs is noise on a
# shared host; medians of ten alternating runs are what a before/after
# quotes.
#
# Usage: ci/bench-ab.sh BASE [BENCH] [N] [OVERLAY]
#   BASE     the revision to compare against (any git revision)
#   BENCH    the -test.bench regexp (default: the refinement kernel's and
#            the oupdr-ooc block's)
#   N        the runs a side (default 10)
#   OVERLAY  test files (space-separated paths from the repository root)
#            copied from the working tree into the base before it is built:
#            a benchmark the base does not have yet, or a fixture the two
#            sides should share
# or through make: make bench-ab BASE=<ref> [BENCH=<regexp>] [N=<runs>] [OVERLAY=<files>].
#
# Both sides run their own test files, so a benchmark whose fixture changed
# between the two revisions times different work on each side. The graded
# leaf of BenchmarkRefineLeaf and BenchmarkIsBad is one: before the change
# that added this script it was judged by the exact delaunay.SizeFunc, since
# then by the radial field as meshgen.sizeParams judges it. Against an older
# base the script's ratios for those two mix the fixture's change with the
# code's; a like-for-like figure needs a copy of the base, made by hand,
# whose internal/delaunay test files are the working tree's (they build
# against the base's code from the commit before the script on); OVERLAY
# makes that copy. BenchmarkRefineBlock is unaffected. BenchmarkBlockCDT and
# BenchmarkMeshBlock (internal/meshgen, oupdr-ooc's block) came with the
# coarse-to-fine insertion order; against a base before them, overlay
# internal/meshgen/block_bench_test.go, which builds against the base's code.
#
# The list of test files that differ between the two sides (after the
# overlay) is printed with the table.
#
# The base is extracted with git archive into a temporary directory, which
# is removed at the end; nothing in the repository changes. It needs git, a
# shell and the Go toolchain, and makes no network access. CI does not run it.
set -euo pipefail

base=${1:-}
bench=${2:-'^Benchmark(RefineBlock|RefineLeaf|IsBad|BlockCDT|MeshBlock)$'}
runs=${3:-10}
overlay=${4:-}
pkgs=(mesh delaunay meshgen)
if [[ -z "$base" ]]; then
	echo "usage: $0 BASE [BENCH] [N]" >&2
	exit 2
fi

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/base" "$tmp/bin" "$tmp/out"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"
for f in $overlay; do
	mkdir -p "$(dirname "$tmp/base/$f")"
	cp "$root/$f" "$tmp/base/$f"
done

# build SIDE TREE: one test binary per package.
build() {
	for p in "${pkgs[@]}"; do
		(cd "$2" && go test -c -o "$tmp/bin/$1-$p.test" "./internal/$p")
	done
}
build base "$tmp/base"
build head "$root"

# run SIDE TREE: every package's binary once, from its package directory
# (tests read testdata relative to it), the benchmark lines appended to
# out/SIDE.
run() {
	for p in "${pkgs[@]}"; do
		(cd "$2/internal/$p" && "$tmp/bin/$1-$p.test" -test.run '^$' -test.bench "$bench" \
			-test.benchtime 1s -test.count 1) | grep '^Benchmark' >>"$tmp/out/$1" || true
	done
}
for ((i = 1; i <= runs; i++)); do
	if ((i % 2)); then
		run base "$tmp/base"
		run head "$root"
	else
		run head "$root"
		run base "$tmp/base"
	fi
	echo "run $i of $runs done" >&2
done

# median SIDE NAME: the median ns/op of one benchmark on one side.
median() {
	awk -v n="$2" '$1 == n { for (i = 2; i < NF; i++) if ($(i+1) == "ns/op") print $i }' "$tmp/out/$1" |
		sort -g | awk '{ v[NR] = $1 } END { if (NR == 0) print "-"; else if (NR % 2) printf "%.1f\n", v[(NR+1)/2]; else printf "%.1f\n", (v[NR/2] + v[NR/2+1]) / 2 }'
}

# The test files of the built packages that still differ between the sides.
echo "test files that differ between the sides:"
for p in "${pkgs[@]}"; do
	for tree in "$tmp/base" "$root"; do
		(cd "$tree" && find "internal/$p" -type f \( -name '*_test.go' -o -path '*/testdata/*' \))
	done
done | sort -u | while read -r f; do
	cmp -s "$tmp/base/$f" "$root/$f" || echo "$f"
done
printf '%-50s %14s %14s %8s\n' "benchmark (ns/op, median of $runs)" "$base" "working tree" "ratio"
cat "$tmp/out/base" "$tmp/out/head" | awk '{ print $1 }' | awk '!seen[$0]++' | while read -r name; do
	a=$(median base "$name")
	b=$(median head "$name")
	ratio=-
	if [[ "$a" != - && "$b" != - ]]; then
		ratio=$(awk -v a="$a" -v b="$b" 'BEGIN { printf "%.3f", b / a }')
	fi
	printf '%-50s %14s %14s %8s\n' "$name" "$a" "$b" "$ratio"
done
