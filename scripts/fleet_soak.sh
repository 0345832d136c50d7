#!/bin/sh
# Fleet-soak smoke: boots a serve instance, points `loadtest -mode
# ingest` at it, and fails unless every upload lands and the live
# aggregate's decision agreement converges to the offline eval values
# (the -tol check).
# After the soak, /metrics is scraped and the run fails if any expected
# metric family (span latency histograms, shed/reject counters, runtime
# gauges) is missing or any exposition line is unparseable.
# The server is then shut down gracefully, so the drain path runs too.
#
#   scripts/fleet_soak.sh                 # 200 uploads of compress
#   FLEET_N=1000 FLEET_PROGRAM=eqntott scripts/fleet_soak.sh
set -eu
cd "$(dirname "$0")/.."

n=${FLEET_N:-200}
addr=${FLEET_ADDR:-localhost:8097}
program=${FLEET_PROGRAM:-compress}

bin=$(mktemp -d)
serve_pid=""
cleanup() {
	[ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
	rm -rf "$bin"
}
trap cleanup EXIT

go build -o "$bin/serve" ./cmd/serve
go build -o "$bin/loadtest" ./cmd/loadtest

"$bin/serve" -addr "$addr" &
serve_pid=$!

ok=""
for _ in $(seq 1 100); do
	if curl -sf "http://$addr/healthz" >/dev/null 2>&1; then
		ok=1
		break
	fi
	sleep 0.1
done
[ -n "$ok" ] || { echo "fleet_soak: serve never became healthy on $addr" >&2; exit 1; }

"$bin/loadtest" -mode ingest -addr "$addr" -program "$program" -n "$n" -j 8 -rps 0

echo "fleet_soak: final health: $(curl -s "http://$addr/healthz")" >&2

# Post-soak observability check: every family the ops surface promises
# must be present after real traffic, and every non-comment line must
# parse as "<series> <value>".
metrics=$(mktemp)
curl -sf "http://$addr/metrics" >"$metrics" || {
	echo "fleet_soak: /metrics scrape failed" >&2
	exit 1
}
for family in \
	'# TYPE span_seconds histogram' \
	'span_seconds_bucket{span="server.ingest",le="+Inf"}' \
	'span_seconds_count{span="server.ingest"}' \
	'span_seconds_count{span="compile"}' \
	'span_seconds_count{span="ingest.merge"}' \
	'span_seconds_count{span="probes.reconstruct"}' \
	'server_responses_total{endpoint="ingest",class="2xx"}' \
	'server_shed_total' \
	'ingest_uploads_total' \
	'ingest_rejects_total{reason="duplicate"}' \
	'runtime_goroutines' \
	'runtime_heap_alloc_bytes' \
	'runtime_gc_pause_seconds_total' \
	; do
	grep -qF "$family" "$metrics" || {
		echo "fleet_soak: /metrics missing expected family: $family" >&2
		rm -f "$metrics"
		exit 1
	}
done
bad=$(grep -v '^#' "$metrics" | awk 'NF != 0 && NF != 2 { print; exit }')
[ -z "$bad" ] || {
	echo "fleet_soak: unparseable /metrics line: $bad" >&2
	rm -f "$metrics"
	exit 1
}
echo "fleet_soak: /metrics families OK ($(grep -c '^# TYPE' "$metrics") families)" >&2
rm -f "$metrics"

echo "fleet_soak: status: $(curl -s "http://$addr/v1/debug/status" | head -c 200)..." >&2

# Graceful drain: SIGTERM must exit cleanly.
kill -TERM "$serve_pid"
wait "$serve_pid"
serve_pid=""
echo "fleet_soak: OK ($n uploads, clean drain)" >&2
