#!/usr/bin/env bash
# metrics_smoke.sh — end-to-end telemetry smoke test.
#
# Phase 1 runs one topkquery through the simulated platform with mild
# chaos and a live telemetry endpoint, then scrapes /metrics and
# /debug/vars and asserts the crowdtopk_tmc_total counter equals the TMC
# the query itself reported. This is the acceptance check that the
# metrics pipeline and the query's own accounting never drift.
#
# Phase 2 boots topkd under the same chaos with SLO tracking and
# structured logging on, drives a mixed batch of queries (plain,
# budget-capped, prioritized) over HTTP, and scrapes the observability
# surface: every /queries/{id}/explain must report reconciled
# attribution, the explain trees must sum to /debug/accounting's
# session_tmc which must equal the audit-log length (the three-way
# invariant), /debug/slo must be tracking, /debug/dashboard must serve,
# and the burn-rate gauges must appear in /metrics.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
out="$workdir/topkquery.out"
pid=""
dpid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    [ -n "$dpid" ] && kill "$dpid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/topkquery" ./cmd/topkquery

"$workdir/topkquery" \
    -n 40 -k 5 -seed 7 \
    -platform -workers 8 -fault-drop 0.05 -retries 8 \
    -metrics-addr 127.0.0.1:0 -serve-wait 60s \
    -trace-out "$workdir/trace.jsonl" -stats-out "$workdir/stats.json" \
    >"$out" 2>"$workdir/topkquery.err" &
pid=$!

# Wait for the query to finish (the cost line appears) while the endpoint
# stays up under -serve-wait.
for _ in $(seq 1 120); do
    grep -q '^cost:' "$out" 2>/dev/null && break
    kill -0 "$pid" 2>/dev/null || { echo "topkquery died:"; cat "$out" "$workdir/topkquery.err"; exit 1; }
    sleep 0.5
done
grep -q '^cost:' "$out" || { echo "query never reported its cost:"; cat "$out"; exit 1; }

addr=$(sed -n 's|^metrics: *http://\([^/]*\)/metrics$|\1|p' "$out")
reported=$(sed -n 's/^cost: *\([0-9]*\) microtasks.*/\1/p' "$out")
[ -n "$addr" ] || { echo "no metrics address in output:"; cat "$out"; exit 1; }
[ -n "$reported" ] || { echo "no cost line in output:"; cat "$out"; exit 1; }

scraped=$(curl -fsS "http://$addr/metrics" | awk '$1 == "crowdtopk_tmc_total" { print $2 }')
[ -n "$scraped" ] || { echo "crowdtopk_tmc_total absent from /metrics scrape"; exit 1; }

if [ "$scraped" != "$reported" ]; then
    echo "FAIL: /metrics crowdtopk_tmc_total=$scraped but query reported cost=$reported"
    exit 1
fi

curl -fsS "http://$addr/debug/vars" | grep -q '"crowdtopk_tmc_total": *'"$reported" \
    || { echo "FAIL: /debug/vars disagrees with reported TMC $reported"; exit 1; }

# The structured stats and the replayable trace must exist and agree too.
stats_tmc=$(sed -n 's/^ *"tmc": *\([0-9]*\),*$/\1/p' "$workdir/stats.json" | head -1)
if [ "$stats_tmc" != "$reported" ]; then
    echo "FAIL: stats.json tmc=$stats_tmc but query reported cost=$reported"
    exit 1
fi
[ -s "$workdir/trace.jsonl" ] || { echo "FAIL: trace JSONL empty"; exit 1; }

echo "OK: TMC agrees across query output, /metrics, /debug/vars and stats.json ($reported microtasks)"

# ---------------------------------------------------------------------------
# Phase 2: the daemon's cost-explainability and SLO surface under chaos.
# ---------------------------------------------------------------------------

dout="$workdir/topkd.out"
dlog="$workdir/topkd.log"

go build -o "$workdir/topkd" ./cmd/topkd

"$workdir/topkd" \
    -addr 127.0.0.1:0 -n 40 -seed 7 -budget 300 \
    -workers 8 -fault-drop 0.1 -fault-error 0.05 \
    -total-budget 100000 -slo-latency 5s -slo-horizon 1h \
    -log-level debug -log-out "$dlog" \
    >"$dout" 2>"$workdir/topkd.err" &
dpid=$!

daddr=""
for _ in $(seq 1 120); do
    daddr=$(sed -n 's|^topkd: serving [0-9]* items on http://\([^ ]*\) (POST /queries)$|\1|p' "$dout")
    [ -n "$daddr" ] && break
    kill -0 "$dpid" 2>/dev/null || { echo "topkd died:"; cat "$dout" "$workdir/topkd.err"; exit 1; }
    sleep 0.5
done
[ -n "$daddr" ] || { echo "topkd never reported its address:"; cat "$dout"; exit 1; }

# A mixed batch: plain, budget-capped and prioritized queries.
ids=()
for body in '{"k":5}' '{"k":4,"max_cost":150}' '{"k":3,"priority":2}'; do
    id=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$body" \
        "http://$daddr/queries" | sed -n 's/^  "id": "\([^"]*\)",*$/\1/p')
    [ -n "$id" ] || { echo "FAIL: no id admitting $body"; exit 1; }
    ids+=("$id")
done

for id in "${ids[@]}"; do
    for _ in $(seq 1 240); do
        state=$(curl -fsS "http://$daddr/queries/$id" | sed -n 's/^  "state": "\([^"]*\)",*$/\1/p')
        case "$state" in done|canceled) break ;; esac
        sleep 0.25
    done
    case "$state" in
        done|canceled) ;;
        *) echo "FAIL: query $id stuck in state '$state'"; exit 1 ;;
    esac
done

# Per-query attribution: every explain tree must be reconciled against
# the query's own meter, exactly.
explain_sum=0
for id in "${ids[@]}"; do
    explain=$(curl -fsS "http://$daddr/queries/$id/explain")
    echo "$explain" | grep -q '"reconciled": true' \
        || { echo "FAIL: query $id attribution not reconciled:"; echo "$explain"; exit 1; }
    tmc=$(echo "$explain" | sed -n 's/^  "tmc": \([0-9]*\),*$/\1/p' | head -1)
    [ -n "$tmc" ] || { echo "FAIL: no tmc in explain of $id"; exit 1; }
    explain_sum=$((explain_sum + tmc))
done

# The three-way invariant: Σ explain trees == session TMC == audit length.
acct=$(curl -fsS "http://$daddr/debug/accounting")
session_tmc=$(echo "$acct" | sed -n 's/^  "session_tmc": \([0-9]*\),*$/\1/p')
audit_len=$(echo "$acct" | sed -n 's/^  "audit_len": \([0-9]*\),*$/\1/p')
if [ "$explain_sum" != "$session_tmc" ] || [ "$session_tmc" != "$audit_len" ]; then
    echo "FAIL: explain trees sum to $explain_sum, session_tmc=$session_tmc, audit_len=$audit_len"
    echo "$acct"
    exit 1
fi
echo "$acct" | grep -q '"balanced": true' \
    || { echo "FAIL: /debug/accounting not balanced at quiescence:"; echo "$acct"; exit 1; }

# SLO tracking is live and the burn-rate gauges are exported.
slo=$(curl -fsS "http://$daddr/debug/slo")
echo "$slo" | grep -q '"enabled": true' \
    || { echo "FAIL: /debug/slo not enabled despite -slo-latency:"; echo "$slo"; exit 1; }
echo "$slo" | grep -q '"state"' \
    || { echo "FAIL: /debug/slo carries no alert state:"; echo "$slo"; exit 1; }
dmetrics=$(curl -fsS "http://$daddr/metrics")
for g in crowdtopk_slo_latency_burn_short_milli crowdtopk_slo_budget_burn_long_milli crowdtopk_slo_budget_remaining; do
    echo "$dmetrics" | grep -q "^$g " \
        || { echo "FAIL: $g absent from daemon /metrics"; exit 1; }
done

# The dashboard serves its self-contained page.
dash=$(curl -fsS "http://$daddr/debug/dashboard")
echo "$dash" | grep -q '<title>crowdtopk ops</title>' \
    || { echo "FAIL: /debug/dashboard did not serve the ops page"; exit 1; }

# Structured logs landed as JSONL in the pinned line shape (UTC "ts",
# lower-case level, then msg) with component tags.
[ -s "$dlog" ] || { echo "FAIL: structured log file empty"; exit 1; }
head -1 "$dlog" | grep -Eq '^\{"ts":"[^"]*Z","level":"(debug|info|warn|error)","msg":' \
    || { echo "FAIL: structured log line is not in the pinned JSONL shape:"; head -1 "$dlog"; exit 1; }
grep -q '"component":"service"' "$dlog" \
    || { echo "FAIL: no service-component log lines"; exit 1; }

# Clean drain on TERM.
kill -TERM "$dpid"
for _ in $(seq 1 120); do
    kill -0 "$dpid" 2>/dev/null || break
    sleep 0.5
done
if kill -0 "$dpid" 2>/dev/null; then
    echo "FAIL: topkd did not drain after TERM"; exit 1
fi
dpid=""
grep -q '^topkd: done' "$dout" || { echo "FAIL: no done line after drain:"; cat "$dout"; exit 1; }

echo "OK: explain trees ($explain_sum) == session TMC ($session_tmc) == audit records ($audit_len) across ${#ids[@]} queries; SLO, dashboard and JSONL logs live"
