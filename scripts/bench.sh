#!/bin/sh
# Benchmark-trajectory harness: runs the benchmark families and writes
# machine-readable snapshots of the numbers this checkout produces,
# committed periodically so performance can be tracked across history:
#
#   BENCH_interp.json  interpreter, probe-profiling, observability, and
#                      the cold compile-and-estimate phases
#   BENCH_serve.json   serving paths (estimate cache hits, fleet ingest),
#                      including p50/p99/p999 tail latency reported by
#                      the benchmarks as custom p*-ns metrics
#
# Alongside each JSON snapshot the raw `go test -bench` stream is kept
# as FILE.bench (benchstat / cmd/benchdiff input format; not committed).
# A failing or silently-skipped benchmark exits non-zero — a truncated
# snapshot must never look like a healthy one.
#
#   scripts/bench.sh                  # smoke run (-benchtime 1x)
#   BENCH_TIME=2s scripts/bench.sh    # steadier numbers
#   BENCH_COUNT=6 scripts/bench.sh    # multi-sample (for benchdiff)
#   BENCH_OUT=- scripts/bench.sh      # interp JSON to stdout
set -eu
cd "$(dirname "$0")/.."

benchtime=${BENCH_TIME:-1x}
benchcount=${BENCH_COUNT:-1}

# bench_family FILTER OUT PKGS... — runs one benchmark family and writes
# the JSON snapshot to OUT ("-" = stdout) plus the raw bench stream to
# OUT with .json swapped for .bench (skipped when OUT is - or /dev/null).
bench_family() {
	filter=$1
	out=$2
	shift 2
	raw=$(mktemp)
	# Not a pipeline: `go test | tee` would report tee's exit status and
	# swallow a benchmark failure.
	if ! go test -run '^$' -bench "$filter" -benchtime "$benchtime" -count "$benchcount" "$@" >"$raw" 2>&1; then
		cat "$raw" >&2
		echo "bench.sh: go test -bench '$filter' failed" >&2
		rm -f "$raw"
		exit 1
	fi
	cat "$raw" >&2
	if ! grep -q '^Benchmark' "$raw"; then
		echo "bench.sh: no Benchmark lines matched '$filter'" >&2
		rm -f "$raw"
		exit 1
	fi
	json=$(awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v gover="$(go env GOVERSION)" '
	BEGIN {
		printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"benchmarks\": [", date, gover
		n = 0
	}
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		if (n++) printf ","
		printf "\n    {\"name\": \"%s\", \"iters\": %s, \"metrics\": {", name, $2
		m = 0
		for (i = 3; i < NF; i += 2) {
			if (m++) printf ", "
			printf "\"%s\": %s", $(i + 1), $i
		}
		printf "}}"
	}
	END { printf "\n  ]\n}\n" }' "$raw")
	# Belt and braces on top of the raw-stream grep: never let a snapshot
	# with zero benchmark entries masquerade as a healthy trajectory point
	# (a bad filter or a parse regression would otherwise silently write
	# an empty "benchmarks": [] on a fresh checkout).
	entries=$(printf '%s\n' "$json" | grep -c '"name":' || true)
	if [ "$entries" -eq 0 ]; then
		echo "bench.sh: refusing to write $out: snapshot has zero benchmark entries" >&2
		rm -f "$raw"
		exit 1
	fi
	if [ "$out" = "-" ]; then
		printf '%s\n' "$json"
	else
		printf '%s\n' "$json" >"$out"
		echo "wrote $out" >&2
		case $out in
		/dev/null) ;;
		*.json)
			rawout=${out%.json}.bench
			cp "$raw" "$rawout"
			echo "wrote $rawout" >&2
			;;
		esac
	fi
	rm -f "$raw"
}

interp_filter=${BENCH_FILTER:-'InterpretCompress|InlineXlisp|ProbeProfiling|ReuseTrace|ObsEnabled|CompilePhases|NilObserverSpan|NilCounterAdd|CounterAdd|SpanStartEnd|HistogramObserve'}
serve_filter=${BENCH_SERVE_FILTER:-'ServeEstimate|ServeBatch|^BenchmarkIngest$'}

bench_family "$interp_filter" "${BENCH_OUT:-BENCH_interp.json}" . ./internal/obs
bench_family "$serve_filter" "${BENCH_SERVE_OUT:-BENCH_serve.json}" ./internal/server
