#!/usr/bin/env bash
# Equal-seed gate for host-only changes. On the simulator commit_tps, both
# latencies, net_bytes_per_txn and the operation counts are functions of the
# seed alone, so a change that claims to leave virtual behaviour alone (an
# allocation or CPU optimisation, a refactor) must reproduce them to the last
# digit. This runs the simulated workloads of the ledger (all three, or those
# named) at one seed on a parent tree and on this tree and fails on any
# difference. Beside each
# workload it prints both sides' host numbers (memory, time and allocations
# per transaction): one sample each, shown for a host-only change to read
# its effect by, never gated on.
#
# Usage: scripts/equal-seed.sh <parent> [seed] [seconds] [workload...]
#   parent    a git ref, checked out into a temporary worktree and removed
#             afterwards; or a directory that already holds the parent tree
#             (a clone), used as it is
#   seed      default 1
#   seconds   the benchmark's --seconds, default 20 (CI uses 5)
#   workload  the workloads to gate, default sim-sat-3x7 sim-gw-crypto-3x4
#             sim-faults-3x4; a change that means to move one workload's
#             schedule (the gateway cut moves sim-gw-crypto-3x4's) still gates
#             the others by naming them
set -euo pipefail
cd "$(dirname "$0")/.."

parent="${1:?usage: scripts/equal-seed.sh <parent-ref|parent-dir> [seed] [seconds] [workload...]}"
seed="${2:-1}"
seconds="${3:-20}"
shift $(($# < 3 ? $# : 3))
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(sim-sat-3x7 sim-gw-crypto-3x4 sim-faults-3x4)

if [ -d "$parent" ]; then
  parent_dir="$(cd "$parent" && pwd)"
else
  tmp="$(mktemp -d)"
  parent_dir="$tmp/parent"
  trap 'git worktree remove --force "$parent_dir" >/dev/null 2>&1 || true; rm -rf "$tmp"' EXIT
  git worktree add --detach "$parent_dir" "$parent" >/dev/null
fi

# The run's last line is one JSON object: "attempted":N, "failed":N and
# "metrics":{name:{"value":V,...}}. This pulls one number out of it.
value() { sed -n "s/.*\"$2\":\({\"value\":\)\{0,1\}\([^,}]*\).*/\2/p" <<<"$1"; }

run() { # run <tree> <workload>: the result object, or nothing if the run failed
  go run -C "$1/bench" . --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1
}

status=0
for w in "${workloads[@]}"; do
  echo "== $w, seed $seed, --seconds $seconds"
  before="$(run "$parent_dir" "$w")" || { echo "FAIL: the parent's run of $w failed"; status=1; continue; }
  after="$(run "$PWD" "$w")" || { echo "FAIL: this tree's run of $w failed"; status=1; continue; }
  for name in commit_tps commit_p50_ms commit_p99_ms net_bytes_per_txn attempted failed; do
    b="$(value "$before" "$name")"
    a="$(value "$after" "$name")"
    if [ -z "$b" ] || [ "$a" != "$b" ]; then
      echo "FAIL: $name  parent ${b:-missing}  change ${a:-missing}"
      status=1
    else
      echo "  $name = $a"
    fi
  done
  echo "  host numbers, one sample, informational (parent -> change):"
  for name in max_rss_mb host_us_per_txn allocs_per_txn alloc_kb_per_txn; do
    echo "    $name  $(value "$before" "$name") -> $(value "$after" "$name")"
  done
done

if [ "$status" -ne 0 ]; then
  echo "equal-seed: virtual behaviour moved; a change that means to move it says by how much, at equal seed"
  exit 1
fi
echo "OK"
