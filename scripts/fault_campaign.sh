#!/usr/bin/env sh
# Deterministic fault-space exploration of the durable-I/O layer
# (src/support/io, docs/RESILIENCE.md "The I/O fault space") against the
# shipped psa_cli binary:
#
#   1. the batch -> cache -> checkpoint -> resume pipeline, swept by
#      `psa_cli --fault-campaign`: one golden traced run, then one scenario
#      per (durable op, fault kind) pair over the full kind vocabulary
#      {enospc, eio, shortwrite, tornrename, crash}, asserting the four
#      soundness invariants machine-checkably (exit-code contract, explicit
#      degradation markers, no corrupt cache entry ever served, crash +
#      --resume reproduces the golden report byte-for-byte);
#   2. the daemon: a golden daemon-served client run is traced, then every
#      daemon-side durable op is faulted (PSA_FAULT_AT=#<op>:{enospc, crash},
#      injected into the daemon's environment only) — the invariant is that
#      a daemon-side io fault NEVER changes the client's answer: same exit
#      code, report byte-identical to the daemon-less golden run modulo an
#      explicit ", attempts N" retry marker (a crash-killed handler's unit
#      is retried by the daemon's supervisor and truthfully reports the
#      attempt count; the analysis content must still match byte-for-byte).
#      Degraded daemons serve uncached; dead daemons trigger reconnect or
#      local fallback.
#
#   $ scripts/fault_campaign.sh [BUILD_DIR]     # default: build
#
# This is the bounded sweep the CI fault-campaign job executes (a few
# minutes). The full-corpus sweep (--campaign-full-corpus, hours) is
# documented in EXPERIMENTS.md.
set -eu

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
CLI="$BUILD/examples/psa_cli"

if [ ! -x "$CLI" ]; then
  echo "fault_campaign: $CLI not found or not executable; build first" >&2
  exit 1
fi

WORK="$(mktemp -d)"
DAEMON_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "fault_campaign: FAIL: $1" >&2
  [ -f "$WORK/daemon.err" ] && sed 's/^/  daemon: /' "$WORK/daemon.err" >&2
  exit 1
}

echo "== phase 1: batch pipeline (op x kind) sweep"
"$CLI" --fault-campaign="$WORK/campaign" ||
  fail "batch fault campaign reported violations (exit $?)"

echo "== phase 2: daemon-side faults never change the client's answer"
SOCK="$WORK/psa.sock"
CACHE="$WORK/cache"

cat >"$WORK/clean.c" <<'EOF'
struct node { struct node *next; int v; };
void main() {
  struct node *p;
  p = malloc(sizeof(struct node));
  p->next = NULL;
  free(p);
  p = NULL;
}
EOF
cat >"$WORK/leaky.c" <<'EOF'
struct node { struct node *next; int v; };
void main() {
  struct node *p;
  p = malloc(sizeof(struct node));
  p->next = NULL;
}
EOF
FILES="$WORK/clean.c $WORK/leaky.c"

start_daemon() {
  # $@: extra environment (NAME=VALUE) injected into the DAEMON only — the
  # client must never inherit a fault plan. A daemon killed by a crash fault
  # during startup never creates the socket; that is a legal scenario (the
  # client falls back to local analysis), so the wait is tolerant.
  env "$@" "$CLI" --serve="$SOCK" --cache-dir="$CACHE" \
    >"$WORK/daemon.out" 2>"$WORK/daemon.err" &
  DAEMON_PID=$!
  i=0
  while [ ! -S "$SOCK" ]; do
    i=$((i + 1))
    [ "$i" -le 30 ] && sleep 0.1 || break
    kill -0 "$DAEMON_PID" 2>/dev/null || break
  done
}

stop_daemon_hard() {
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
  wait "$DAEMON_PID" 2>/dev/null || true
  DAEMON_PID=""
  rm -f "$SOCK"
}

echo "-- golden: local batch (no daemon)"
status=0
$CLI $FILES --isolate --check >"$WORK/golden.txt" 2>/dev/null || status=$?
[ "$status" -eq 1 ] || fail "golden local run exited $status, want 1"
GOLDEN_EXIT="$status"

echo "-- golden: traced daemon-served run"
rm -rf "$CACHE"
start_daemon PSA_IO_TRACE="$WORK/daemon-trace.log"
status=0
$CLI $FILES --check --connect="$SOCK" >"$WORK/daemon-golden.txt" \
  2>/dev/null || status=$?
stop_daemon_hard
[ "$status" -eq "$GOLDEN_EXIT" ] ||
  fail "daemon-served golden run exited $status, want $GOLDEN_EXIT"
cmp -s "$WORK/daemon-golden.txt" "$WORK/golden.txt" ||
  fail "daemon-served golden report differs from local report"
OPS="$(awk '/^op /{print $2}' "$WORK/daemon-trace.log")"
[ -n "$OPS" ] || fail "daemon trace recorded no durable ops"
echo "-- sweeping $(echo "$OPS" | wc -l) daemon ops x {enospc, crash}"

for op in $OPS; do
  for kind in enospc crash; do
    rm -rf "$CACHE"
    start_daemon PSA_FAULT_AT="#$op:$kind"
    status=0
    $CLI $FILES --check --connect="$SOCK" >"$WORK/faulted.txt" \
      2>/dev/null || status=$?
    stop_daemon_hard
    [ "$status" -eq "$GOLDEN_EXIT" ] ||
      fail "daemon op $op kind $kind: client exited $status, want $GOLDEN_EXIT"
    # A crash-killed handler's unit is retried daemon-side and truthfully
    # streams ", attempts N"; everything else must match byte-for-byte.
    sed 's/, attempts [0-9]*//' "$WORK/faulted.txt" >"$WORK/faulted.norm"
    cmp -s "$WORK/faulted.norm" "$WORK/golden.txt" ||
      fail "daemon op $op kind $kind: client report differs from golden"
  done
done

echo "fault_campaign: OK (batch sweep + daemon sweep all invariants held)"
