#!/usr/bin/env bash
# crash_smoke.sh — crash-recovery smoke test.
#
# Three lives of one audit directory: run 1 finishes a query and shuts
# down cleanly; run 2 resumes (the finished query must come back
# byte-identical, with zero draws), starts a long query and is killed -9
# mid-spend; run 3 resumes again and must replay the dead run's persisted
# work for free. The directory must verify clean after the kill (crash
# debris is never misread as tampering) and the final accounting must
# balance exactly: every microtask is either replayed free or a live
# purchase, the directory grows by exactly the live purchases, and —
# because the replayed query is the session's first drawing query in both
# lives, so its draw sequence is deterministic — the free replays equal
# every record the dead run put on disk. Work that reached disk is never
# re-bought.
set -euo pipefail

cd "$(dirname "$0")/.."

for tool in go curl jq awk sed mktemp; do
    command -v "$tool" >/dev/null 2>&1 \
        || { echo "FAIL: required tool '$tool' not found in PATH" >&2; exit 1; }
done

workdir=$(mktemp -d)
audit="$workdir/audit"
pid=""
out=""
cleanup() {
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

rq() {
    local attempt
    for attempt in 1 2 3; do
        if curl -fsS --max-time 10 "$@"; then
            return 0
        fi
        sleep 0.2
    done
    echo "FAIL: curl $* failed after 3 attempts" >&2
    return 1
}

boot_diagnostics() {
    echo "---- topkd boot log ($out) ----" >&2
    cat "$out" >&2 || true
    echo "---- end boot log ----" >&2
}

# boot EXTRA_FLAGS...: start topkd against the shared audit directory and
# scrape its ephemeral address into $addr. The dataset/budget flags must
# be identical across lives — resume replays assume the same query meets
# the same world.
addr=""
boot() {
    out="$workdir/topkd-run$1.out"; shift
    "$workdir/topkd" \
        -addr 127.0.0.1:0 -n 120 -seed 7 -budget 4000 -noise 0.25 \
        -platform=false -parallelism 1 \
        -audit-dir "$audit" -audit-sync always "$@" \
        >"$out" 2>&1 &
    pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's|^topkd: serving .* on http://\([^ ]*\) .*$|\1|p' "$out")
        [ -n "$addr" ] && return 0
        kill -0 "$pid" 2>/dev/null || { echo "FAIL: topkd died during boot" >&2; boot_diagnostics; exit 1; }
        sleep 0.1
    done
    echo "FAIL: topkd never printed its address within 10s" >&2
    boot_diagnostics
    exit 1
}

# drain: SIGTERM and wait for the shutdown summary.
drain() {
    kill -TERM "$pid"
    for _ in $(seq 1 100); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    kill -0 "$pid" 2>/dev/null && { echo "FAIL: topkd did not exit on SIGTERM"; exit 1; }
    pid=""
    grep -q '^topkd: done' "$out" || { echo "FAIL: no shutdown summary:"; cat "$out"; exit 1; }
}

go build -o "$workdir/topkd" ./cmd/topkd \
    || { echo "FAIL: topkd does not build" >&2; exit 1; }

# ---- Run 1: finish one query, shut down cleanly. ----
boot 1
# check_ledger asserts /debug/accounting balances in this life, with the
# journal-restored finished query's spend reported apart as restored_tmc.
check_ledger() {
    local acc
    acc=$(rq "http://$addr/debug/accounting")
    [ "$(jq -r .balanced <<<"$acc")" = true ] \
        || { echo "FAIL: /debug/accounting unbalanced $1: $acc"; exit 1; }
    [ "$(jq -r ".restored_tmc // 0" <<<"$acc")" -eq "$q0_tmc" ] \
        || { echo "FAIL: restored_tmc is not $q0_tmc $1: $acc"; exit 1; }
}

q0=$(rq "http://$addr/queries" -d '{"k":3,"algorithm":"spr","max_cost":300}' | jq -r .id)
[ -n "$q0" ] && [ "$q0" != null ] || { echo "FAIL: POST /queries returned no id"; exit 1; }
deadline=$((SECONDS + 60))
while :; do
    state=$(rq "http://$addr/queries/$q0" | jq -r .state)
    [ "$state" = done ] && break
    [ "$SECONDS" -lt "$deadline" ] || { echo "FAIL: query $q0 stuck in state $state"; exit 1; }
    sleep 0.1
done
q0_before=$(rq "http://$addr/queries/$q0" | jq -S '{state, top_k, tmc}')
q0_tmc=$(jq -r .tmc <<<"$q0_before")
drain

# ---- Run 2: resume, start a long query, die by kill -9 mid-spend. ----
boot 2 -resume
grep -q '^topkd: restore —' "$out" \
    || { echo "FAIL: resume run reported no restored queries"; boot_diagnostics; exit 1; }
q0_r2=$(rq "http://$addr/queries/$q0" | jq -S '{state, top_k, tmc}')
[ "$q0_r2" = "$q0_before" ] \
    || { echo "FAIL: query $q0 changed across clean restart:"; echo "before: $q0_before"; echo "after:  $q0_r2"; exit 1; }
check_ledger "after the clean restart"

q2=$(rq "http://$addr/queries" -d '{"k":10,"algorithm":"spr"}' | jq -r .id)
[ -n "$q2" ] && [ "$q2" != null ] || { echo "FAIL: POST /queries returned no id"; exit 1; }
# Kill once the query is demonstrably mid-spend: far from zero (records
# are on disk) and far from finishing (budget 4000 over k=10 of 120
# items spends orders of magnitude more).
for _ in $(seq 1 200); do
    tmc=$(rq "http://$addr/queries/$q2" | jq -r '.tmc // 0')
    [ "$tmc" -gt 500 ] && break
    sleep 0.02
done
[ "$tmc" -gt 0 ] || { echo "FAIL: query $q2 never started spending"; exit 1; }
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""

# The dead directory must audit clean, and the survivor count is the
# zero-re-buy baseline for the next life.
verify1=$("$workdir/topkd" -verify-audit -audit-dir "$audit") \
    || { echo "FAIL: post-crash verify failed:"; echo "$verify1"; exit 1; }
records_before=$(sed -n 's/^topkd: verify OK — \([0-9]*\) records intact$/\1/p' <<<"$verify1")
[ -n "$records_before" ] || { echo "FAIL: unparsable verify output:"; echo "$verify1"; exit 1; }
[ "$records_before" -gt "$q0_tmc" ] \
    || { echo "FAIL: nothing of query $q2 reached the disk before the kill ($records_before records, $q0_tmc from $q0)"; exit 1; }

# ---- Run 3: resume, replay the dead run's work, drain, audit the books. ----
boot 3 -resume
grep -q '^topkd: restore —' "$out" \
    || { echo "FAIL: resume run reported no restored queries"; boot_diagnostics; exit 1; }
q0_r3=$(rq "http://$addr/queries/$q0" | jq -S '{state, top_k, tmc}')
[ "$q0_r3" = "$q0_before" ] \
    || { echo "FAIL: query $q0 changed across the crash:"; echo "before: $q0_before"; echo "after:  $q0_r3"; exit 1; }
deadline=$((SECONDS + 120))
while :; do
    state=$(rq "http://$addr/queries/$q2" | jq -r .state)
    [ "$state" = done ] && break
    [ "$SECONDS" -lt "$deadline" ] || { echo "FAIL: query $q2 stuck in state $state after resume"; exit 1; }
    sleep 0.1
done
check_ledger "after the crash-resume"
drain

acct=$(sed -n 's/^topkd: resume accounting — \([0-9]*\) replayed free, \([0-9]*\) live purchases, tmc \([0-9]*\)$/\1 \2 \3/p' "$out")
[ -n "$acct" ] || { echo "FAIL: no resume accounting line:"; cat "$out"; exit 1; }
read -r replayed live tmc <<<"$acct"
audit_line=$(sed -n 's/^topkd: audit — \([0-9]*\) records on disk (\([0-9]*\) appended this run).*$/\1 \2/p' "$out")
[ -n "$audit_line" ] || { echo "FAIL: no audit summary line:"; cat "$out"; exit 1; }
read -r records_after appended <<<"$audit_line"

# The exact-money invariants of recovery.
[ "$tmc" -eq $((replayed + live)) ] \
    || { echo "FAIL: tmc $tmc != replayed $replayed + live $live"; exit 1; }
[ "$records_after" -eq $((records_before + appended)) ] \
    || { echo "FAIL: directory grew $records_before -> $records_after but run appended $appended"; exit 1; }
[ "$appended" -eq "$live" ] \
    || { echo "FAIL: appended $appended records but made $live live purchases"; exit 1; }
# Zero re-buys: everything the dead run persisted for the replayed
# query is served from the log, not bought again. Replay is keyed per
# pair, so judgments the finished query recorded for pairs the replayed
# one also draws are free too — hence at-least, bounded by the whole log.
[ "$replayed" -ge $((records_before - q0_tmc)) ] \
    || { echo "FAIL: dead run persisted $((records_before - q0_tmc)) records of $q2 but resume replayed only $replayed"; exit 1; }
[ "$replayed" -le "$records_before" ] \
    || { echo "FAIL: replayed $replayed records, only $records_before were ever on disk"; exit 1; }

# The drained directory must still verify end to end.
[ -f "$audit/MANIFEST.json" ] || { echo "FAIL: no MANIFEST.json after drain"; exit 1; }
"$workdir/topkd" -verify-audit -audit-dir "$audit" >/dev/null \
    || { echo "FAIL: final verify failed"; exit 1; }

echo "OK: kill -9 with $records_before records persisted; resume replayed $replayed free (zero re-buys), bought $live live (tmc $tmc), directory grew to $records_after and verifies"
