#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#   bash perfbench/run.sh --workload acloud-serve --seed 1 --seconds 30 --trace 0
# Run it from the repository root. The Go build cache, the binary, the
# span files and the durable workload's node stores all stay under
# .bench_build/ in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmpfs" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off GOWORK=off
(cd perfbench && go build -o "$out/bin/perfbench" .)

# The node stores go to a private tmpfs mounted on .bench_build/tmpfs in a
# mount namespace of the benchmark's own, so it vanishes when the run
# ends. On the ext4 root mounted with online discard the same stores made
# the durable workload 4-9x slower and its run-to-run spread over 2x.
mount_tmpfs='mount -t tmpfs -o size=256m perfbench "$0"'
for ns in "--mount" "--map-root-user --mount"; do
	# shellcheck disable=SC2086 # $ns is a list of flags
	if unshare $ns sh -c "$mount_tmpfs" "$out/tmpfs" 2>/dev/null; then
		# shellcheck disable=SC2086
		exec unshare $ns sh -c "$mount_tmpfs"' && exec "$@"' "$out/tmpfs" "$out/bin/perfbench" "$@"
	fi
done
echo "perfbench: cannot mount a private tmpfs; node stores use the checkout's filesystem" >&2
exec "$out/bin/perfbench" "$@"
