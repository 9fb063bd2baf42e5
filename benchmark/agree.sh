#!/usr/bin/env bash
# Runs the default suite twice on the same commit and holds the second set
# of results against the first: every end-to-end metric must agree within
# its own bound, and none may be unresolved.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${1:-$here/out}"
bash "$here/run.sh" -out "$out/agree-a" "${@:2}"
bash "$here/run.sh" -out "$out/agree-b" "${@:2}"
bash "$here/run.sh" -compare "$out/agree-a/results.json" "$out/agree-b/results.json" | tee "$out/agree.txt"
if grep -q unresolved "$out/agree.txt"; then
	echo "agree.sh: unresolved metrics" >&2
	exit 1
fi
