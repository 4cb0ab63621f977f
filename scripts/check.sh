#!/usr/bin/env bash
# The CI pipeline's command lines, each in this one file: the workflow's jobs
# call the presets below. Run from the repository root.
#
# Usage: scripts/check.sh [preset]
#   (default)        full pipeline: tier1, then race, then the three node smokes
#   tier1            gofmt, vet, build, tests, bench-module vet + short tests,
#                    demo -trace smoke, tampering example (CI: build-and-test)
#   race             short-mode race shard over the packages with the hottest
#                    concurrency surface and the TCP transport with the wire
#                    codec it carries, a root-package shard of several TCP
#                    gateway nodes in one process, purego shard, the eight
#                    fuzz smokes (CI: race-short)
#   groups           just the group-state suite (DESIGN.md §6's table:
#                    failover and membership) — the full crash, partition,
#                    simultaneous-death, join/leave/crash-overlap and forged
#                    group-table schedules and the root package's pinned
#                    false-death fork seeds (with cutWatch, the transition
#                    hook that flags a cut applied behind a node's cursor,
#                    pinned per seed), then under -race -short the
#                    reduced ones, the unit tests of step and the
#                    interleaving explorer (TestGroupTableExplore) — for
#                    iterating on group-state changes without the
#                    full-suite wait
#   node-smoke       just the multi-process TCP smoke test — a 4-node loopback
#                    cluster of massbft-node OS processes with a kill/rejoin
#                    round trip — for iterating on transport changes
#   gateway-smoke    just the external-client path, on both fabrics: over
#                    simnet the pinned gateway runs and the cut's MaxWait
#                    bound (TestGatewayFingerprints,
#                    TestGatewayCutHonoursMaxWait), over TCP the 4-node
#                    cluster driven by massbft-client through the per-node
#                    gateways, with a mid-run SIGKILL — for iterating on
#                    gateway changes (CI: gateway-smoke)
#   divergence-sweep just the agreement-forensics sweep — the combined-fault
#                    demo preset (WAN drop + LAN drop + dup + jitter) across a
#                    seed range, each run drained to a classified verdict
#                    (converged / wedged / forked); any forked verdict fails —
#                    for iterating on recovery/retransmission changes
#   recapture        just the pins that move with the simulator's fault draws
#                    (ROADMAP item 10's re-capture rules): the simnet
#                    scheduler fingerprints and wheel-vs-heap oracle, the
#                    partition-chaos census, the Byzantine meta-batch replay
#                    fork, the §VI-E tampering census
#                    (TestByzantineChunkTampering), the faulty
#                    transport-seam fingerprint, the pinned
#                    fork seeds and the fault runs that assert a silent
#                    certWatch — the list a change to what a draw decides,
#                    or to one link's send order, re-captures and states in
#                    CHANGES.md
#   equal-seed [ref] the equal-seed gate for host-only changes — the three
#                    simulated ledger workloads at seed 1 on `ref` (default
#                    HEAD, i.e. the uncommitted work against its base) and on
#                    this tree; commit_tps, both latencies, net_bytes_per_txn
#                    and the operation counts must be equal to the last digit
#                    (scripts/equal-seed.sh takes a seed, a run length and the
#                    workloads to gate too: a change that moves one
#                    workload's schedule still gates the others)
#   fault-timeline [ref]
#                    the fault-timeline equality gate: `go run
#                    ./examples/geoledger` (Byzantine tampering, then a
#                    data-center outage) on `ref` (default HEAD) and on this
#                    tree must print the same bytes; no benchmark workload
#                    runs a Byzantine node, so the equal-seed gate cannot see
#                    that path (~25 s a side)
#   size [ref]       the non-test Go line count outside bench/ (generated
#                    files included) and the five largest packages: the
#                    number ROADMAP and CHANGES.md quote; with a ref, also
#                    the count at ref (its committed files) and the
#                    difference (CI prints it against the merge base; not a
#                    gate)
#   cover            the production functions no test runs: the whole suite
#                    under -coverpkg=./..., then every function at 0.0 %
#                    outside cmd/, examples/, scripts/ and edwards25519
#                    (~2.5 min on two cores; a list to start a deletion from,
#                    not a gate and not a CI job)
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
  # The TCP transport is the only network code with goroutines of its own.
  # simnet's shard includes TestLinkDecisionsAreItsOwn: a link's fault draws
  # do not move when other links' sends change.
  # fifo and workload hold memos that goroutines share (fifo.Locked, zeta's).
  echo "== go test -race -short (simnet, replication, core, pbft, trace, erasure, gf256, keys and its edwards25519, statedb, aria, gateway, merkle, cluster, transport and its tcp, fifo, workload)"
  go test -race -short -timeout 600s ./internal/simnet/ ./internal/replication/ ./internal/core/ ./internal/pbft/ ./internal/trace/ ./internal/erasure/ ./internal/gf256/ ./internal/keys/... ./internal/statedb/ ./internal/aria/ ./internal/gateway/ ./internal/merkle/ ./internal/cluster/ ./internal/transport/... ./internal/fifo/ ./internal/workload/

  # Several gateway nodes, each with its own cluster.Process, in one OS
  # process over loopback TCP (the 2x2 case of the client end-to-end test):
  # a memo made once per OS process instead of once per cluster.Process,
  # such as a package-level decode memo, races here.
  echo "== go test -race -short (root package: nodes of one OS process over TCP)"
  go test -race -short -timeout 300s -run TestTCPGatewayClientEndToEnd .

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
  # accepts re-encodes to the same bytes. Minimizing a mutant of the 43 KB
  # checkpoint seed takes most of 15 s at the default 60 s limit; capped at
  # 1 s the run mutates instead (tens of thousands of executions against
  # hundreds of thousands).
  echo "== fuzz smoke (wire envelope decoder, 15 s)"
  go test -run '^$' -fuzz FuzzEnvelopeRoundTrip -fuzztime 15s -fuzzminimizetime 1s ./internal/cluster/

  # The framing under every TCP connection: frames coalesced into one write
  # come back identical and in order through a buffered reader over one-byte
  # and half reads, and arbitrary bytes end in an error, not a panic or an
  # allocation past MaxFrameSize.
  echo "== fuzz smoke (TCP frame stream, 15 s)"
  go test -run '^$' -fuzz FuzzFrameStream -fuzztime 15s ./internal/transport/

  # What the decoder accepts, delivered to a fresh node: no frame may panic it,
  # whatever group or entry it names.
  echo "== fuzz smoke (node intake of decoded envelopes, 15 s)"
  go test -run '^$' -fuzz FuzzNodeIntake -fuzztime 15s ./internal/core/

  # A collector on a rebuild memo the honest sender seeded against one that
  # decodes: honest, flipped, lying-length and dropped batches all get the
  # same verdicts, and the same delivered bytes.
  echo "== fuzz smoke (seeded collector against a decoding one, 15 s)"
  go test -run '^$' -fuzz FuzzSeededCollector -fuzztime 15s ./internal/replication/

  # One real-crypto PBFT replica fed arbitrary peer messages, some naming it
  # as signer: it never delivers a slot its certificate or digest does not
  # cover.
  echo "== fuzz smoke (PBFT replica intake, 15 s)"
  go test -run '^$' -fuzz FuzzPBFTHandle -fuzztime 15s ./internal/pbft/
}

# The line count of every non-test Go file outside bench/ under the current
# directory, one "<lines> <file>" per line.
golines() {
  find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print0 |
    xargs -0 wc -l | awk '$2 != "total"'
}

size() {
  golines | awk '{
      dir = $2; sub(/\/[^\/]*$/, "", dir); pkg[dir] += $1; sum += $1
    } END {
      printf "non-test Go outside bench/: %d lines\nlargest packages:\n", sum
      for (dir in pkg) printf "%7d %s\n", pkg[dir], dir | "sort -rn | head -5"
    }'
  [ -n "${1:-}" ] || return 0
  local here there tmp
  here="$(golines | awk '{ sum += $1 } END { print sum + 0 }')"
  tmp="$(mktemp -d)"
  git archive "$1" | tar -x -C "$tmp"
  there="$(cd "$tmp" && golines | awk '{ sum += $1 } END { print sum + 0 }')"
  rm -rf "$tmp"
  printf "at %s: %d lines; this tree: %+d\n" "$1" "$there" "$((here - there))"
}

# Every production function that the full test suite never enters, as
# `go tool cover -func` prints it.
cover() {
  local tmp
  tmp="$(mktemp)"
  go test -count=1 -timeout 900s -coverpkg=./... -coverprofile="$tmp" ./... |
    { grep -vE '^ok |coverage: [0-9.]+% of statements' || true; }
  echo "== functions at 0.0 % (outside cmd/, examples/, scripts/, edwards25519)"
  go tool cover -func="$tmp" | awk '$NF == "0.0%"' |
    grep -vE '^massbft/(cmd|examples|scripts)/|/edwards25519/' || true
  rm -f "$tmp"
}

# The geoledger example's output on ref and on this tree, compared byte for
# byte.
fault_timeline() {
  local tmp status=0
  tmp="$(mktemp -d)"
  git archive "$1" | tar -x -C "$tmp"
  (cd "$tmp" && go run ./examples/geoledger) >"$tmp/ref.out"
  go run ./examples/geoledger >"$tmp/here.out"
  diff -u "$tmp/ref.out" "$tmp/here.out" || status=$?
  rm -rf "$tmp"
  if [ "$status" -ne 0 ]; then
    echo "examples/geoledger prints differently from $1" >&2
    exit 1
  fi
}

case "$preset" in
size)
  size "${2:-}"
  exit 0
  ;;
cover)
  cover
  exit 0
  ;;
groups)
  echo "== group-state suite (full schedules)"
  go test -timeout 600s -run 'TestGroup|TestBaselineGroupCrash|TestSimultaneousGroupDeaths|TestPartition|TestChaos|TestMembership|TestTakeoverBookkeeping|TestRejoinRejectsForgedGroupTable|TestValidGroups|TestStandbyBootstrap|TestCheckpointInstallsAlikeOnBothFabrics' -v ./internal/core/
  go test -timeout 300s -run 'TestFalseDeathForkSeeds|TestSaturatedJoinConverges' -v .
  echo "== group-state suite, reduced schedules and the explorer (-race -short)"
  go test -race -short -timeout 300s -run 'TestPartitionFailoverReduced|TestSimultaneousGroupDeaths|TestMembershipJoinReduced|TestMembershipLeaveReduced|TestGroupTableFoldRestore|TestGroupTableStep|TestGroupTableExplore|TestGroupQuorum|TestValidGroups|TestStandbyBootstrap|TestCheckpointInstallsAlikeOnBothFabrics' -v ./internal/core/
  echo "OK"
  exit 0
  ;;
node-smoke)
  bash scripts/node_smoke.sh
  echo "OK"
  exit 0
  ;;
gateway-smoke)
  echo "== gateway over simnet (pinned runs, the cut's MaxWait bound)"
  go test -count=1 -run 'TestGatewayFingerprints|TestGatewayCutHonoursMaxWait' ./internal/core/
  echo "== gateway over TCP (massbft-client, mid-run kill)"
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
recapture)
  echo "== draw-dependent pins"
  go test -count=1 -run 'TestSchedulerFingerprints|TestScaleScenarioWheelMatchesHeap' ./internal/simnet/
  go test -count=1 -timeout 300s -run 'TestPartitionChaosFailover|TestMetaBatchReplayedUnderAnotherSeq|TestByzantineChunkTampering' ./internal/core/
  go test -count=1 -timeout 300s -run 'TestTransportSeamBitIdentical/massbft-faults|TestFalseDeathForkSeeds|TestPayloadForkSeed|TestCombinedFaultSeedsConverge|TestPartitionWANHealsAndConverges' .
  echo "OK"
  exit 0
  ;;
equal-seed)
  bash scripts/equal-seed.sh "${2:-HEAD}"
  exit 0
  ;;
fault-timeline)
  echo "== fault timeline (examples/geoledger against ${2:-HEAD})"
  fault_timeline "${2:-HEAD}"
  echo "OK"
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
  echo "unknown preset: $preset (want: full, tier1, race, groups, node-smoke, gateway-smoke, divergence-sweep, recapture, equal-seed, fault-timeline, size, cover)" >&2
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
