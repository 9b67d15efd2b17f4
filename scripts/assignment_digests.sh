#!/usr/bin/env bash
# Prints the SHA-256 of the `--write-assignment` output of a fixed set of
# partition jobs, one `<sha256>  <job>` line per job, in a fixed order.
#
# Usage: scripts/assignment_digests.sh FPART WORKDIR
#
# FPART is the `fpart` binary to drive; WORKDIR receives the generated
# netlists and assignments. The jobs cover the FM engine's configurations:
#
#   flat      fpart on s38584 (XC3000 technology) onto XC3020, delta 0.9
#   flat-xc3090
#             the same netlist onto XC3090, delta 0.9: M = 11 <= n_small, so
#             the schedule runs all-blocks (multi-block) improve passes
#   kway      --method kway on the same netlist (one gain level, no stacks)
#   ml-t1     --multilevel on a 20k-cell Rent netlist, --threads 1
#   ml-t2     the same at --threads 2
#   eco       fpart eco repair of the flat result after the edits in
#             goldens/bit_identity_eco.jsonl
#
# scripts/ci.sh compares the output with goldens/assignment_digests.txt;
# every job is deterministic, so any difference is a behaviour change.

set -euo pipefail
[ "$#" -eq 2 ] || { echo "usage: $0 FPART WORKDIR" >&2; exit 2; }
fpart=$1
dir=$2
root="$(cd "$(dirname "$0")/.." && pwd)"
mkdir -p "$dir"

"$fpart" gen mcnc --circuit s38584 --tech xc3000 --output "$dir/s38584.fhg" >/dev/null
"$fpart" gen rent --nodes 20000 --terminals 600 --seed 42 --output "$dir/rent20k.fhg" >/dev/null

run() {
    local job=$1
    shift
    "$@" --write-assignment "$dir/$job.asg" >/dev/null 2>&1 \
        || { echo "job $job failed: $*" >&2; exit 1; }
    (cd "$dir" && sha256sum "$job.asg") | sed 's/\.asg$//'
}

run flat "$fpart" partition "$dir/s38584.fhg" --device XC3020 --delta 0.9
run flat-xc3090 "$fpart" partition "$dir/s38584.fhg" --device XC3090 --delta 0.9
run kway "$fpart" partition "$dir/s38584.fhg" --device XC3020 --delta 0.9 --method kway
run ml-t1 "$fpart" partition "$dir/rent20k.fhg" --s-max 400 --t-max 120 --multilevel --threads 1
run ml-t2 "$fpart" partition "$dir/rent20k.fhg" --s-max 400 --t-max 120 --multilevel --threads 2
run eco "$fpart" eco "$dir/s38584.fhg" --device XC3020 --delta 0.9 \
    --assignment "$dir/flat.asg" --edits "$root/goldens/bit_identity_eco.jsonl"
