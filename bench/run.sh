#!/bin/sh
# Builds the MFPA benchmark from the checkout this script sits in and
# runs it; every argument is passed through (see bench/README.md).
#
#   sh bench/run.sh --workload retrain --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the toolchain's telemetry
# counters (kept under the user config directory), the binary and any
# span files all live under .bench_build/ at the checkout root, so a run
# reads and writes nothing outside the checkout. The build needs the
# repository's go.mod one level up: in a directory holding only the
# benchmark it fails, and the script exits non-zero without printing a
# result.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
# Stamping the VCS revision needs a working git; a checkout that is not
# a repository, or one git refuses to read, builds without it.
(cd "$here" && { go build -o "$out/mfpa-bench" . 2>/dev/null || go build -buildvcs=false -o "$out/mfpa-bench" .; })
cd "$root"
exec "$out/mfpa-bench" "$@"
