#!/usr/bin/env bash
# Builds bench/mamaload into .bench_build/ of the checkout it sits in and
# runs it with the arguments given. Everything the build writes (binary,
# Go build cache) stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0
go build -C "$root/bench" -o "$out/mamaload" ./mamaload
cd "$root"
exec "$out/mamaload" "$@"
