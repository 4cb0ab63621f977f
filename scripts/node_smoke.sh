#!/usr/bin/env bash
# Multi-process smoke test over loopback TCP. Three modes:
#
#   (default)  launch a 4-node cluster of massbft-node OS processes
#              (2 groups x 2 nodes), assert that committed entries converge
#              across all of them, then SIGKILL one follower, assert the
#              survivors notice (dial failures / heartbeat misses in the
#              transport metrics), restart it with -rejoin, and assert it
#              re-syncs via the checkpointed-rejoin path with reconnects
#              visible on the survivors.
#
#   client     the external-client path: the same 4-node cluster with client
#              gateways enabled, driven by massbft-client (closed-loop signed
#              requests, f+1 reply certificates) instead of leader-generated
#              load. One follower is SIGKILLed mid-run; clients must keep
#              converging through timeout resubmission, and the gateway-*
#              counters must show up in the survivors' status files.
#
#   membership a 6-node cluster (3 groups x 2 nodes) where the third group is
#              provisioned standby. Node (0,0) carries -reconfigure to
#              broadcast the admin join trigger mid-run; every process — the
#              standby members included — must converge on the certified
#              epoch 1 with active groups [0,1,2], and the joined group must
#              bootstrap through checkpoint transfer and then commit entries
#              of its own in prefix agreement with the old members.
#
# Every mode ends by asserting that no live node counted an envelope it
# failed to encode or decode (transport EncodeErrors, DecodeErrors).
#
# -v passes -v to every node and prints, at the end, the state-machine
# transitions the nodes logged (ProcNode logs each but a slot's phases).
#
# Run from the repository root: scripts/node_smoke.sh [-v] [client|membership]
set -euo pipefail
cd "$(dirname "$0")/.."

verbose=""
if [ "${1:-}" = "-v" ]; then
  verbose="-v"
  shift
fi
mode="${1:-kill-rejoin}"
case "$mode" in kill-rejoin | client | membership) ;; *)
  echo "unknown mode: $mode (want: kill-rejoin, client, membership)" >&2
  exit 2
  ;;
esac

workdir="$(mktemp -d)"
pids=()
cleanup() {
  for p in "${pids[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
  if [ -n "$verbose" ]; then
    echo "== transitions logged"
    grep -h " transition " "$workdir"/log-*.txt || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build massbft-node"
go build -o "$workdir/massbft-node" ./cmd/massbft-node

base=$(( (RANDOM % 2000) * 8 + 21000 ))

start_node() { # group index extra-args...
  local g=$1 i=$2; shift 2
  "$workdir/massbft-node" -topology "$workdir/topo.json" -group "$g" -index "$i" \
    -status "$workdir/status-$g-$i.json" -status-interval 200ms \
    -peers-status "$workdir/status-*.json" $verbose \
    "$@" >"$workdir/log-$g-$i.txt" 2>&1 &
  pids+=($!)
  disown   # keep SIGKILL cleanup out of the job-control chatter
  echo "$!"
}

# status FILE EXPR -> evaluates a python expression over the parsed status
# JSON (bound to `s`); prints the result or fails silently.
status() {
  python3 - "$workdir/status-$1.json" "$2" <<'PY' 2>/dev/null
import json, sys
try:
    s = json.load(open(sys.argv[1]))
except Exception:
    sys.exit(1)
print(eval(sys.argv[2]))
PY
}

wait_until() { # deadline-seconds description expr-per-node...
  local deadline=$(( $(date +%s) + $1 )); local what=$2; shift 2
  while true; do
    local ok=1
    for spec in "$@"; do
      local node="${spec%%:*}" expr="${spec#*:}"
      [[ "$(status "$node" "$expr")" == "True" ]] || { ok=0; break; }
    done
    [[ $ok == 1 ]] && { echo "   ok: $what"; return 0; }
    if (( $(date +%s) > deadline )); then
      echo "TIMEOUT waiting for: $what" >&2
      for f in "$workdir"/status-*.json; do echo "--- $f"; cat "$f" 2>/dev/null; echo; done >&2
      for f in "$workdir"/log-*.txt; do echo "--- $f"; tail -5 "$f"; done >&2
      return 1
    fi
    sleep 0.3
  done
}

# agree A B -> asserts the two nodes' status trails hold identical hashes at
# every height they share (and share at least one).
agree() {
  python3 - "$workdir/status-$1.json" "$workdir/status-$2.json" <<'PY'
import json, sys
a = json.load(open(sys.argv[1])); b = json.load(open(sys.argv[2]))
bh = {p["h"]: p["hash"] for p in (b.get("trail") or [])}
shared = 0
for p in (a.get("trail") or []):
    if p["h"] in bh:
        shared += 1
        assert bh[p["h"]] == p["hash"], f'ledger fork at height {p["h"]}'
assert shared > 0, "no shared trail heights"
print(f"   agree: {sys.argv[1].split('-',1)[1]} vs {sys.argv[2].split('-',1)[1]} ({shared} shared heights)")
PY
}

# wire_clean NODE... -> asserts no listed node failed to encode or decode an
# envelope: the one check in which separate OS processes must agree on the
# codec's bytes.
wire_clean() {
  local specs=() n
  for n in "$@"; do
    specs+=("$n:s['transport']['DecodeErrors'] == 0 and s['transport']['EncodeErrors'] == 0")
  done
  wait_until 10 "no envelope encode or decode errors on $*" "${specs[@]}"
}

# ---------------------------------------------------------------------------
# membership mode: standby group joins via the admin reconfigure trigger
# ---------------------------------------------------------------------------
if [[ "$mode" == membership ]]; then
  # suspect_timeout_ms is high so a slow CI runner can stall a group without
  # the failover machinery certifying a death mid-join.
  cat > "$workdir/topo.json" <<EOF
{
  "groups": [2, 2, 2],
  "standby_groups": 1,
  "seed": 7,
  "workload": "ycsb-a",
  "batch_timeout_ms": 50,
  "max_batch": 20,
  "group_rate": [200, 200, 200],
  "takeover_timeout_ms": 500,
  "suspect_timeout_ms": 60000,
  "repair_timeout_ms": 200,
  "checkpoint_interval_ms": 300,
  "rejoin_timeout_ms": 1000,
  "nodes": [
    {"group": 0, "index": 0, "addr": "127.0.0.1:$((base))"},
    {"group": 0, "index": 1, "addr": "127.0.0.1:$((base+1))"},
    {"group": 1, "index": 0, "addr": "127.0.0.1:$((base+2))"},
    {"group": 1, "index": 1, "addr": "127.0.0.1:$((base+3))"},
    {"group": 2, "index": 0, "addr": "127.0.0.1:$((base+4))"},
    {"group": 2, "index": 1, "addr": "127.0.0.1:$((base+5))"}
  ]
}
EOF

  echo "== launch 6-node cluster, group 2 standby (ports $base-$((base+5)))"
  start_node 0 0 -reconfigure join:2@8s >/dev/null
  start_node 0 1 >/dev/null
  start_node 1 0 >/dev/null
  start_node 1 1 >/dev/null
  start_node 2 0 >/dev/null
  start_node 2 1 >/dev/null

  echo "== phase 1: active groups commit; every process reports genesis membership"
  wait_until 90 "active nodes at height >= 3 on epoch 0 with active [0,1]" \
    "0-0:s['height'] >= 3 and s['epoch'] == 0 and s.get('active') == [0, 1]" \
    "0-1:s['height'] >= 3 and s['epoch'] == 0 and s.get('active') == [0, 1]" \
    "1-0:s['height'] >= 3 and s['epoch'] == 0 and s.get('active') == [0, 1]" \
    "1-1:s['height'] >= 3 and s['epoch'] == 0 and s.get('active') == [0, 1]" \
    "2-0:s['epoch'] == 0 and s.get('active') == [0, 1]" \
    "2-1:s['epoch'] == 0 and s.get('active') == [0, 1]"

  echo "== phase 2: join trigger fires at t=8s; epoch 1 must certify everywhere"
  wait_until 120 "all six processes on certified epoch 1 with active [0,1,2]" \
    "0-0:s['epoch'] == 1 and s.get('active') == [0, 1, 2]" \
    "0-1:s['epoch'] == 1 and s.get('active') == [0, 1, 2]" \
    "1-0:s['epoch'] == 1 and s.get('active') == [0, 1, 2]" \
    "1-1:s['epoch'] == 1 and s.get('active') == [0, 1, 2]" \
    "2-0:s['epoch'] == 1 and s.get('active') == [0, 1, 2]" \
    "2-1:s['epoch'] == 1 and s.get('active') == [0, 1, 2]"

  echo "== phase 3: joined group bootstrapped and commits entries of its own"
  wait_until 30 "group 2 bootstrapped via checkpoint transfer" \
    "2-0:(s.get('counters') or {}).get('standby-bootstrapped', 0) >= 1" \
    "2-1:(s.get('counters') or {}).get('standby-bootstrapped', 0) >= 1"
  wait_until 90 "joined group committing post-join load" \
    "2-0:s['height'] >= 1 and s['committed'] > 0" \
    "2-1:s['height'] >= 1 and s['committed'] > 0"
  agree 2-0 2-1
  agree 0-0 2-0
  agree 1-0 2-0
  wire_clean 0-0 0-1 1-0 1-1 2-0 2-1

  echo "== node smoke (membership mode) OK"
  exit 0
fi

# ---------------------------------------------------------------------------
# client mode: gateway-driven load from massbft-client, SIGKILL mid-run
# ---------------------------------------------------------------------------
if [[ "$mode" == client ]]; then
  echo "== build massbft-client"
  go build -o "$workdir/massbft-client" ./cmd/massbft-client

  # Gateway mode: no group_rate — all load enters through the per-node client
  # gateways ("gateway" addrs), from identities registered by "clients".
  cat > "$workdir/topo.json" <<EOF
{
  "groups": [2, 2],
  "seed": 7,
  "workload": "ycsb-a",
  "batch_timeout_ms": 50,
  "max_batch": 20,
  "clients": 64,
  "repair_timeout_ms": 200,
  "checkpoint_interval_ms": 300,
  "rejoin_timeout_ms": 1000,
  "nodes": [
    {"group": 0, "index": 0, "addr": "127.0.0.1:$((base))", "gateway": "127.0.0.1:$((base+4))"},
    {"group": 0, "index": 1, "addr": "127.0.0.1:$((base+1))", "gateway": "127.0.0.1:$((base+5))"},
    {"group": 1, "index": 0, "addr": "127.0.0.1:$((base+2))", "gateway": "127.0.0.1:$((base+6))"},
    {"group": 1, "index": 1, "addr": "127.0.0.1:$((base+3))", "gateway": "127.0.0.1:$((base+7))"}
  ]
}
EOF

  echo "== launch 4-node gateway cluster (2 groups x 2 nodes, ports $base-$((base+7)))"
  start_node 0 0 >/dev/null
  start_node 0 1 >/dev/null
  start_node 1 0 >/dev/null
  victim_pid=$(start_node 1 1)

  # With no clients connected yet, leaders propose idle heartbeats: entries
  # certify and execute but are never sealed, so height stays 0 until real
  # client transactions arrive. Gate on certified entries for liveness.
  wait_until 90 "every node heartbeating (certified entries)" \
    "0-0:s['entries'] >= 3" "0-1:s['entries'] >= 3" \
    "1-0:s['entries'] >= 3" "1-1:s['entries'] >= 3"

  echo "== phase 1: 32 closed-loop clients against the gateways (12s)"
  "$workdir/massbft-client" -topology "$workdir/topo.json" -clients 32 \
    -run 12s -timeout 1s -out "$workdir/client.json" \
    >"$workdir/log-client.txt" 2>&1 &
  client_pid=$!  # not disowned: the script waits on its exit status below

  echo "== phase 2: SIGKILL follower (1,1) mid-run"
  sleep 4
  kill -9 "$victim_pid"
  rm -f "$workdir/status-1-1.json"

  if ! wait "$client_pid"; then
    echo "massbft-client failed:" >&2
    cat "$workdir/log-client.txt" >&2
    exit 1
  fi
  cat "$workdir/log-client.txt"

  echo "== phase 3: clients converged through the kill"
  python3 - "$workdir/client.json" <<'PY'
import json, sys
s = json.load(open(sys.argv[1]))
assert s["committed"] > 0, "no request earned a reply certificate"
assert s["gave_up"] == 0, f'{s["gave_up"]} requests abandoned'
print(f"   ok: {s['committed']} certified, {s['resubmits']} resubmits, p95 {s['p95_ms']:.0f}ms")
PY

  echo "== phase 4: gateway pipeline visible in survivor status files"
  wait_until 30 "gateway counters on the survivors" \
    "0-0:(s.get('counters') or {}).get('gateway-verified', 0) > 0 and (s.get('counters') or {}).get('gateway-executed', 0) > 0" \
    "0-1:(s.get('counters') or {}).get('gateway-executed', 0) > 0" \
    "1-0:(s.get('counters') or {}).get('gateway-executed', 0) > 0"
  wait_until 30 "a survivor routed signed replies to client connections" \
    "0-0:(s.get('counters') or {}).get('gateway-reply-sent', 0) > 0"
  wait_until 60 "every survivor committed client transactions" \
    "0-0:s['committed'] > 0" "0-1:s['committed'] > 0" "1-0:s['committed'] > 0"
  agree 0-0 0-1
  agree 0-0 1-0
  wire_clean 0-0 0-1 1-0

  echo "== node smoke (client mode) OK"
  exit 0
fi

# ---------------------------------------------------------------------------
# default mode: leader-generated load, kill + checkpointed rejoin
# ---------------------------------------------------------------------------
cat > "$workdir/topo.json" <<EOF
{
  "groups": [2, 2],
  "seed": 7,
  "workload": "ycsb-a",
  "batch_timeout_ms": 50,
  "max_batch": 20,
  "group_rate": [200, 200],
  "repair_timeout_ms": 200,
  "checkpoint_interval_ms": 300,
  "rejoin_timeout_ms": 1000,
  "nodes": [
    {"group": 0, "index": 0, "addr": "127.0.0.1:$((base))"},
    {"group": 0, "index": 1, "addr": "127.0.0.1:$((base+1))"},
    {"group": 1, "index": 0, "addr": "127.0.0.1:$((base+2))"},
    {"group": 1, "index": 1, "addr": "127.0.0.1:$((base+3))"}
  ]
}
EOF

echo "== launch 4-node loopback cluster (2 groups x 2 nodes, ports $base-$((base+3)))"
start_node 0 0 >/dev/null
start_node 0 1 >/dev/null
start_node 1 0 >/dev/null
victim_pid=$(start_node 1 1)

echo "== phase 1: all nodes commit entries end-to-end"
wait_until 90 "every node at height >= 5 with committed txns" \
  "0-0:s['height'] >= 5 and s['committed'] > 0" \
  "0-1:s['height'] >= 5 and s['committed'] > 0" \
  "1-0:s['height'] >= 5 and s['committed'] > 0" \
  "1-1:s['height'] >= 5 and s['committed'] > 0"
wait_until 30 "every node agrees on the genesis epoch and member set" \
  "0-0:s['epoch'] == 0 and s.get('active') == [0, 1]" \
  "0-1:s['epoch'] == 0 and s.get('active') == [0, 1]" \
  "1-0:s['epoch'] == 0 and s.get('active') == [0, 1]" \
  "1-1:s['epoch'] == 0 and s.get('active') == [0, 1]"
agree 0-0 0-1
agree 0-0 1-0
agree 0-0 1-1
wait_until 30 "cross-node agreement classifier runs and reports no fork" \
  "0-0:(s.get('agreement') or {}).get('verdict') in ('converged', 'wedged')" \
  "1-0:(s.get('agreement') or {}).get('verdict') in ('converged', 'wedged')"

echo "== phase 2: SIGKILL node (1,1)"
h_at_kill=$(status 1-1 "s['height']")
kill -9 "$victim_pid"
rm -f "$workdir/status-1-1.json"

wait_until 60 "survivor (1,0) notices the dead peer in transport metrics" \
  "1-0:s['transport']['DialFailures'] > 0 or s['transport']['HeartbeatMisses'] > 0 or s['transport']['SendTimeouts'] > 0"
wait_until 90 "survivors keep committing without (1,1)" \
  "1-0:s['height'] >= $((h_at_kill + 3))"

echo "== phase 3: restart (1,1) with -rejoin"
h_before_restart=$(status 1-0 "s['height']")
start_node 1 1 -rejoin >/dev/null

wait_until 120 "restarted node catches up past height $h_before_restart" \
  "1-1:s['height'] >= $h_before_restart"
agree 1-1 1-0
wait_until 30 "checkpointed rejoin engaged (state-transfers counter)" \
  "1-1:(s.get('counters') or {}).get('state-transfers', 0) >= 1"
wait_until 30 "restarted node re-dialed its peers" \
  "1-1:s['transport']['Connects'] > 0"
wait_until 60 "a survivor reconnected (backoff loop re-established the link)" \
  "1-0:s['transport']['Reconnects'] > 0"
wait_until 30 "agreement classifier saw no fork through the kill and rejoin" \
  "0-0:(s.get('agreement') or {}).get('verdict') in ('converged', 'wedged') and (s.get('counters') or {}).get('forked-detected', 0) == 0" \
  "1-1:(s.get('counters') or {}).get('forked-detected', 0) == 0"
wire_clean 0-0 0-1 1-0 1-1

echo "== node smoke OK"
