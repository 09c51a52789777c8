#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload paper-g10 --seed 1 --seconds 15 --trace 0
#
# Run from the root of the repository. Every build artefact (Go build cache,
# temporary files, the binary) and every file the benchmark writes stays
# under .bench_build/ in that root; nothing is fetched from the network.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
if [[ ! -f "$root/go.mod" ]]; then
	echo "perfbench: no gaussrange sources (go.mod) in $root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/home"
# HOME and XDG_CONFIG_HOME keep the go command's config and telemetry files
# inside the checkout as well.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -root "$root" "$@"
