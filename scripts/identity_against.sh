#!/usr/bin/env bash
# Parent-identity check: do this tree and <rev> compute the same maps?
#
#   scripts/identity_against.sh <rev>       # e.g. HEAD~1, main, a sha
#
# Exports <rev> from the local repository into a temporary directory
# (git archive: no network, no worktree bookkeeping left behind), runs
# scripts/fingerprints.py against both source trees side by side, prints
# both fingerprint lists and exits non-zero on any difference.  The
# working tree is used as it stands, uncommitted edits included.
#
# The tier-1 identity gates are relational (stream vs batch, workers vs
# serial, oracle vs incremental): a change that moves both sides equally
# passes them.  This check compares absolute fingerprints across
# revisions, so it catches that.  It takes about a minute on two cores
# (default-scale batch and churned-stream runs, the two trees in
# parallel).

set -euo pipefail

if [[ $# -ne 1 ]]; then
    echo "usage: $0 <rev>" >&2
    exit 2
fi
rev="$1"

cd "$(dirname "$0")/.."
here="$(pwd)"
sha="$(git rev-parse --verify --quiet "${rev}^{commit}")" || {
    echo "identity: unknown revision: ${rev}" >&2
    exit 2
}

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git archive "$sha" src | tar -x -C "$work/base"

echo "== fingerprints: ${rev} (${sha:0:12}) vs working tree =="
PYTHONPATH="$work/base/src" python scripts/fingerprints.py >"$work/base.txt" &
base_pid=$!
PYTHONPATH="$here/src" python scripts/fingerprints.py >"$work/head.txt" &
head_pid=$!
status=0
wait "$base_pid" || status=1
wait "$head_pid" || status=1
if [[ "$status" -ne 0 ]]; then
    echo "identity: a fingerprint run failed" >&2
    exit 1
fi

echo "-- ${rev}"
cat "$work/base.txt"
echo "-- working tree"
cat "$work/head.txt"
if ! diff -u "$work/base.txt" "$work/head.txt"; then
    echo "identity: FAILED — maps differ from ${rev}"
    exit 1
fi
echo "identity: $(wc -l <"$work/head.txt") fingerprint lines match ${rev}"
