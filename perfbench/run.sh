#!/usr/bin/env bash
# Builds the perfbench binary from the checkout it is run in and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sim --seed 1 --seconds 10 --trace 0
#
# Every build artefact (Go build cache, module cache, the binary, traced
# spans) goes under $CARGO_TARGET_DIR, or .bench_build when that is unset, so
# the run writes nothing outside the checkout. Without the repository's
# module next to perfbench/ the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
if [ -z "$commit" ]; then
	# Outside a git checkout: identify the source by the hash of its Go files.
	commit=src-$(find "$root" -path "$out" -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs sha256sum | sed "s|$root/||" | sha256sum | cut -c1-16)
fi

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" --commit "$commit" "$@"
