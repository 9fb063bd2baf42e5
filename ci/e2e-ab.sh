#!/usr/bin/env bash
# e2e-ab.sh — an A/B of the benchmark's end-to-end metrics: the benchmark
# binary built once at a base revision and once from the working tree, then
# N pairs of untraced runs per workload (`--workload W --seed S --seconds T
# --trace 0`, the way the benchmark's driver runs them), the two sides of a
# pair on the same fresh seed and the side that goes first alternating, so
# that a drift of the host falls on both sides alike. One pair is noise on a
# shared host; a claim quotes the medians and the pairs better of ten.
#
# Usage: ci/e2e-ab.sh BASE [WORKLOADS] [N] [SECONDS] [OUT]
#   BASE       the revision to compare against (any git revision)
#   WORKLOADS  comma-separated workloads (default: all five)
#   N          pairs per workload (default 10)
#   SECONDS    the --seconds of each run (default 15)
#   OUT        the record to write (default BENCH_ab.json)
# or through make: make e2e-ab BASE=<ref> [WORKLOADS=a,b] [N=10] [SECONDS=15] [OUT=BENCH_<n>.json].
#
# The record (ci/abreport writes it) holds how the pairs were made, the host
# (nproc, CPU model, go version), both commits, per workload and metric the
# medians and quartiles of each side, the change at the median and the pairs
# in which the working tree did better, every raw pair, and the test files
# that differ between the two sides: a ratio that mixes a changed fixture or
# golden with changed code says so. The seeds start at a number taken from
# the clock, so no seed used while a change was written is reused, and they
# are recorded.
#
# The record names the measured tree by its git tree hash as well as by
# HEAD: on a dirty working tree HEAD is not what ran, but the tree hash
# (every tracked and untracked, not ignored file, as `git add -A` would
# stage them, taken before the build) equals `git rev-parse C^{tree}` of the
# commit C that later records that tree unchanged.
#
# The base is extracted with git archive into a temporary directory, which
# is removed at the end; nothing in the repository changes but OUT and the
# working tree's benchmark/out, where its runs spool. It needs git, a shell
# and the Go toolchain, and makes no network access. CI does not run it.
set -euo pipefail

base=${1:-}
workloads=${2:-oupdr-ooc,onupdr-incore,opcdm-tiered,swap-churn,export-restore}
pairs=${3:-10}
seconds=${4:-15}
out=${5:-BENCH_ab.json}
if [[ -z "$base" ]]; then
	echo "usage: $0 BASE [WORKLOADS] [N] [SECONDS] [OUT]" >&2
	exit 2
fi

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/base" "$tmp/bin"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"

# build SIDE TREE: the benchmark binary, built as benchmark/run.sh builds it.
build() {
	(cd "$2/benchmark" && GOWORK=off GOTOOLCHAIN=local go build -o "$tmp/bin/$1" .)
}
# The measured tree, staged into a scratch index (the repository's own
# index is not touched; the blobs land in its object store).
cp "$(git -C "$root" rev-parse --git-path index)" "$tmp/index" 2>/dev/null || true
tree=$(cd "$root" && GIT_INDEX_FILE="$tmp/index" git add -A && GIT_INDEX_FILE="$tmp/index" git write-tree)
dirty=false
[[ "$tree" != "$(git -C "$root" rev-parse 'HEAD^{tree}')" ]] && dirty=true

build parent "$tmp/base"
build change "$root"

# run SIDE TREE WORKLOAD SEED FIRST: one run, from the tree's root as run.sh
# runs it, its result line appended to the raw record.
run() {
	local line
	line=$(cd "$2" && "$tmp/bin/$1" --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 | tail -n 1)
	printf '%s\t%s\t%s\t%s\t%s\n' "$3" "$4" "$1" "$5" "$line" >>"$tmp/raw.tsv"
}
seed0=$(( $(date +%s) % 1000000 * 100 ))
IFS=, read -r -a names <<<"$workloads"
for w in "${names[@]}"; do
	for ((i = 0; i < pairs; i++)); do
		seed=$((seed0 + i))
		if ((i % 2 == 0)); then
			run parent "$tmp/base" "$w" "$seed" parent
			run change "$root" "$w" "$seed" parent
		else
			run change "$root" "$w" "$seed" change
			run parent "$tmp/base" "$w" "$seed" change
		fi
		echo "$w: pair $((i + 1)) of $pairs done" >&2
	done
done

# Test files, goldens and fixtures that differ between the two sides: the
# tracked ones changed since BASE and the untracked ones.
{
	git -C "$root" diff --name-only "$base" -- '*_test.go' '*/testdata/*'
	git -C "$root" ls-files --others --exclude-standard -- '*_test.go' '*/testdata/*'
} | sort -u >"$tmp/testfiles.txt"

how="$pairs interleaved pairs per workload of the benchmark binary (--workload W --seed S --seconds $seconds --trace 0), built once from $base (git archive) and once from the working tree; seeds $seed0-$((seed0 + pairs - 1)), the same seed for both sides of a pair, the parent running first in the first pair and in every other one after it; workloads one after another in the order $workloads. Written by ci/e2e-ab.sh."
(cd "$root" && go run ./ci/abreport \
	-raw "$tmp/raw.tsv" -tests "$tmp/testfiles.txt" -bench BENCHMARK.json \
	-base "$(git -C "$root" rev-parse "$base")" -head "$(git -C "$root" rev-parse HEAD)" -dirty="$dirty" -tree "$tree" \
	-nproc "$(nproc)" -cpu "$(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2- | sed 's/^ *//' || true)" \
	-go "$(go version)" -how "$how" -out "$out")
