#!/bin/sh
# Profile one benchmark workload with gprofng and print the 30 functions
# with the most exclusive CPU time.
#
#   tools/profile.sh WORKLOAD [SEED]
#
# WORKLOAD is a perfbench workload name (news-1e5, flash-churn,
# indexall-updates, cluster-2); SEED defaults to 1.  The run is
# untraced (--trace 0) and lasts 8 seconds.  The
# experiment directory is kept under $TMPDIR for further `gprofng
# display text` queries; its path is printed last.  A developer tool,
# not a gate: it builds and runs perfbench/main.exe and changes nothing
# in the checkout beyond dune's _build.
set -eu
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: tools/profile.sh WORKLOAD [SEED]" >&2
  exit 2
fi
if ! command -v gprofng > /dev/null 2>&1; then
  echo "tools/profile.sh: gprofng not found (it ships with GNU binutils >= 2.39)" >&2
  exit 2
fi
workload=$1
seed=${2:-1}

dune build ./perfbench/main.exe
exp=$(mktemp -d "${TMPDIR:-/tmp}/pdht-profile.XXXXXX")
gprofng collect app -O "$exp/run.er" \
  _build/default/perfbench/main.exe --workload "$workload" --seed "$seed" \
  --seconds 8 --trace 0 > "$exp/run.out"
tail -n 1 "$exp/run.out"
gprofng display text -metrics e.%totalcpu:name -sort e.totalcpu -limit 30 \
  -functions "$exp/run.er"
echo "experiment: $exp/run.er"
