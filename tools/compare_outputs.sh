#!/usr/bin/env bash
# Byte comparison of what two checkouts of inclab write.
#
#   tools/compare_outputs.sh PARENT CHANGE [WORKDIR]
#
# PARENT and CHANGE are checkouts (directories holding src/).  For each one
# the script runs, with that checkout's src/ on PYTHONPATH, what Tier-1's
# tests/golden.json does not pin:
#   - `inclab verify` at --scale quick --seed 0 and --scale desk --seed 0,
#     each into its own --out tree;
#   - every other command with its default flags, each into its own --out;
# and keeps each run's stdout and exit code next to its files.  The results
# go to WORKDIR/parent and WORKDIR/change (WORKDIR defaults to a new
# temporary directory), and the script ends with `diff -r` of the two: it
# exits 0 when every byte matches and 1 when some differ.  The desk verify
# takes one to two minutes per checkout on two cores.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 PARENT CHANGE [WORKDIR]" >&2
    exit 2
fi
work=${3:-$(mktemp -d)}
mkdir -p "$work"
work=$(cd "$work" && pwd)

# run NAME CMD...: stdout to NAME.stdout, exit code to NAME.exit
run() {
    local name=$1
    shift
    local code=0
    "$@" > "$name.stdout" || code=$?
    echo "$code" > "$name.exit"
}

outputs() {
    local tree out
    tree=$(cd "$1" && pwd)
    out=$2
    rm -rf "$out"
    mkdir -p "$out"
    for scale in quick desk; do
        run "$out/verify-$scale-0" env PYTHONPATH="$tree/src" python3 -m inclab.cli \
            verify --scale "$scale" --seed 0 --out "$out/verify-$scale-0"
    done
    for cmd in energy incidence-sweep xray-check smoothing content \
               furstenberg slicing radial; do
        run "$out/$cmd" env PYTHONPATH="$tree/src" python3 -m inclab.cli \
            "$cmd" --out "$out/$cmd"
    done
}

outputs "$1" "$work/parent"
outputs "$2" "$work/change"
echo "outputs in $work"
diff -r "$work/parent" "$work/change"
