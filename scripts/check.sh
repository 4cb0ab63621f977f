#!/usr/bin/env bash
# The CI pipeline's command lines, each in this one file: the workflow's jobs
# call the presets below. Run from the repository root.
#
# Usage: scripts/check.sh [preset]
#   (default)        full pipeline: tier1, then race, then the three node smokes
#   tier1            gofmt, vet, build, tests, bench-module vet + short tests,
#                    demo -trace smoke, tampering example (CI: build-and-test)
#   race             short-mode race shard over the packages with the hottest
#                    concurrency surface, purego shard, the five fuzz smokes
#                    (CI: race-short)
#   groups           just the group-state suite (DESIGN.md §6's table:
#                    failover and membership) — the full crash, partition,
#                    simultaneous-death, join/leave/crash-overlap and forged
#                    group-table schedules and the root package's pinned
#                    false-death fork seeds, then under -race -short the
#                    reduced ones, the unit tests of step and the
#                    interleaving explorer (TestGroupTableExplore) — for
#                    iterating on group-state changes without the
#                    full-suite wait
#   node-smoke       just the multi-process TCP smoke test — a 4-node loopback
#                    cluster of massbft-node OS processes with a kill/rejoin
#                    round trip — for iterating on transport changes
#   gateway-smoke    just the external-client path — the 4-node cluster driven
#                    by massbft-client through the per-node gateways, with a
#                    mid-run SIGKILL — for iterating on gateway changes (the
#                    simulated side is go test -run TestGatewayFingerprints
#                    ./internal/core/)
#   divergence-sweep just the agreement-forensics sweep — the combined-fault
#                    demo preset (WAN drop + LAN drop + dup + jitter) across a
#                    seed range, each run drained to a classified verdict
#                    (converged / wedged / forked); any forked verdict fails —
#                    for iterating on recovery/retransmission changes
#   equal-seed [ref] the equal-seed gate for host-only changes — the three
#                    simulated ledger workloads at seed 1 on `ref` (default
#                    HEAD, i.e. the uncommitted work against its base) and on
#                    this tree; commit_tps, both latencies, net_bytes_per_txn
#                    and the operation counts must be equal to the last digit
#                    (scripts/equal-seed.sh takes a seed and a run length too)
#   size             the non-test Go line count outside bench/ (generated
#                    files included) and the five largest packages: the
#                    number ROADMAP and CHANGES.md quote
set -euo pipefail
cd "$(dirname "$0")/.."

preset="${1:-full}"

tier1() {
  echo "== gofmt"
  unformatted="$(gofmt -l .)"
  if [ -n "$unformatted" ]; then
    echo "gofmt -l . lists:" >&2
    echo "$unformatted" >&2
    exit 1
  fi

  echo "== go vet"
  go vet ./...

  echo "== go build"
  go build ./...

  echo "== go test"
  go test ./... -timeout 900s

  # bench/ is a module of its own that tier-1 never builds: vet it and run its
  # short tests so a rename in internal/... cannot rot the ledger silently.
  echo "== bench module (vet + short tests)"
  go -C bench vet . && go -C bench test -short .

  echo "== demo -trace smoke (the CLI flag end to end; the file's content is tier-1's)"
  tracefile="$(mktemp)"
  go run ./cmd/massbft-demo -groups 2 -nodes 3 -duration 3s -trace "$tracefile" >/dev/null
  test -s "$tracefile"
  rm -f "$tracefile"

  echo "== tampering example (the collector API outside internal/core, end to end)"
  go run ./examples/tampering >/dev/null
}

race() {
  # The core shard includes TestPartitionFailoverReduced and the reduced
  # membership join/leave schedules: WAN partition failover and certified
  # epoch reconfiguration both run under the race detector on every pass
  # (the full schedules skip in -short).
  echo "== go test -race -short (simnet, replication, core, pbft, trace, erasure, gf256, keys and its edwards25519, statedb, aria, gateway, merkle)"
  go test -race -short -timeout 600s ./internal/simnet/ ./internal/replication/ ./internal/core/ ./internal/pbft/ ./internal/trace/ ./internal/erasure/ ./internal/gf256/ ./internal/keys/... ./internal/statedb/ ./internal/aria/ ./internal/gateway/ ./internal/merkle/

  # The field arithmetic under internal/keys/edwards25519 has an amd64 assembly
  # path and a generic one; -tags purego runs the generic one on amd64 too.
  echo "== go test -tags purego (generic field arithmetic)"
  go test -tags purego ./internal/keys/...

  # The state store against a map[string][]byte model: every mutator and every
  # way a store is copied, compared on everything observable after each step.
  echo "== fuzz smoke (statedb key table against a map model, 15 s)"
  go test -run '^$' -fuzz FuzzStoreAgainstMap -fuzztime 15s ./internal/statedb/

  # The batch verifier against crypto/ed25519: whatever the standard library
  # accepts it accepts, and where it accepts more, a torsion component is why.
  echo "== fuzz smoke (batch signature verification against crypto/ed25519, 15 s)"
  go test -run '^$' -fuzz FuzzVerifyAgainstStdlib -fuzztime 15s ./internal/keys/edwards25519/

  # The leader's intake and cut against a model: no bad signature and no nonce
  # twice in a cut, every genuine request cut once, the batch/single cost bounds.
  echo "== fuzz smoke (gateway intake and cut against a model, 15 s)"
  go test -run '^$' -fuzz FuzzIntakeCut -fuzztime 15s ./internal/gateway/

  # The decoder every TCP frame goes through: no input may panic it, and what it
  # accepts re-encodes to the same bytes.
  echo "== fuzz smoke (wire envelope decoder, 15 s)"
  go test -run '^$' -fuzz FuzzEnvelopeRoundTrip -fuzztime 15s ./internal/cluster/

  # What the decoder accepts, delivered to a fresh node: no frame may panic it,
  # whatever group or entry it names.
  echo "== fuzz smoke (node intake of decoded envelopes, 15 s)"
  go test -run '^$' -fuzz FuzzNodeIntake -fuzztime 15s ./internal/core/
}

size() {
  find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print0 |
    xargs -0 wc -l | awk '$2 != "total" {
      dir = $2; sub(/\/[^\/]*$/, "", dir); pkg[dir] += $1; sum += $1
    } END {
      printf "non-test Go outside bench/: %d lines\nlargest packages:\n", sum
      for (dir in pkg) printf "%7d %s\n", pkg[dir], dir | "sort -rn | head -5"
    }'
}

case "$preset" in
size)
  size
  exit 0
  ;;
groups)
  echo "== group-state suite (full schedules)"
  go test -timeout 600s -run 'TestGroup|TestBaselineGroupCrash|TestSimultaneousGroupDeaths|TestPartition|TestChaos|TestMembership|TestTakeoverBookkeeping|TestRejoinRejectsForgedGroupTable|TestValidGroups|TestStandbyBootstrap' -v ./internal/core/
  go test -timeout 300s -run 'TestFalseDeathForkSeeds' -v .
  echo "== group-state suite, reduced schedules and the explorer (-race -short)"
  go test -race -short -timeout 300s -run 'TestPartitionFailoverReduced|TestSimultaneousGroupDeaths|TestMembershipJoinReduced|TestMembershipLeaveReduced|TestGroupTableFoldRestore|TestGroupTableStep|TestGroupTableExplore|TestGroupQuorum|TestValidGroups|TestStandbyBootstrap' -v ./internal/core/
  echo "OK"
  exit 0
  ;;
node-smoke)
  bash scripts/node_smoke.sh
  echo "OK"
  exit 0
  ;;
gateway-smoke)
  bash scripts/node_smoke.sh client
  echo "OK"
  exit 0
  ;;
divergence-sweep)
  echo "== divergence sweep (combined-fault preset, seeds 1-5, classified verdicts)"
  go run ./scripts/divergence-sweep -seeds 1-5 -duration 6s -drain 8s -fail-on-wedge
  echo "OK"
  exit 0
  ;;
equal-seed)
  bash scripts/equal-seed.sh "${2:-HEAD}"
  exit 0
  ;;
tier1)
  tier1
  echo "OK"
  exit 0
  ;;
race)
  race
  echo "OK"
  exit 0
  ;;
full) ;;
*)
  echo "unknown preset: $preset (want: full, tier1, race, groups, node-smoke, gateway-smoke, divergence-sweep, equal-seed, size)" >&2
  exit 2
  ;;
esac

tier1
race

echo "== node smoke (4 massbft-node processes over loopback TCP, kill + rejoin)"
bash scripts/node_smoke.sh

echo "== node smoke, client mode (massbft-client through the gateways, mid-run kill)"
bash scripts/node_smoke.sh client

echo "== node smoke, membership mode (standby group joins via the admin trigger)"
bash scripts/node_smoke.sh membership

echo "OK"
