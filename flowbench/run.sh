#!/usr/bin/env bash
# Builds flowbench from source in this checkout and runs it, passing every
# argument through. Run it from the root of the checkout:
#
#   bash flowbench/run.sh --workload miss --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary go under
# $CARGO_TARGET_DIR (default .bench_build), so a run reads and writes only
# the checkout and the Go toolchain. Build output goes to standard error;
# the result is the last line of standard output.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" GOENV=off GOFLAGS= GOWORK=off
export GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME="$out/config"
if [ -z "${FLOWBENCH_COMMIT:-}" ]; then
	# Only this directory's own repository, if it is one.
	FLOWBENCH_COMMIT=$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" git rev-parse HEAD 2>/dev/null || echo unknown)
	export FLOWBENCH_COMMIT
fi

(cd flowbench && go build -o "$out/flowbench" .) >&2
exec "$out/flowbench" "$@"
