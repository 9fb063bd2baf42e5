#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs it
# with the arguments given. Everything the Go toolchain writes (build cache,
# module cache, telemetry) is pointed inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/home"
(
	cd "$here"
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
		GOCACHE="$build/gocache" GOPATH="$build/gopath" \
		GOTOOLCHAIN=local GOWORK=off \
		go build -o "$build/mrts-benchmark" .
)
cd "$root"
exec "$build/mrts-benchmark" "$@"
