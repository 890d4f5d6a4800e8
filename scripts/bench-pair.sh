#!/bin/sh
# bench-pair.sh BASE [WORKLOAD] [PAIRS]
#
# Paired comparison of the repository's benchmark (benchmark/README.md,
# "Paired comparisons") between a base revision and the working tree:
# builds ./benchmark once per side — the base from a `git archive` copy
# carrying the working tree's benchmark/ sources, so both sides run the
# same benchmark code — runs them alternated (which side goes first
# flips every pair), and ends in `-compare`, one row per (metric,
# workload) with the base's own spread and a verdict.
#
#   BASE      revision to compare against (e.g. HEAD~1)
#   WORKLOAD  a workload name, or all (default all; ~10 min per pair)
#   PAIRS     number of pairs (default 10)
#
# Environment: SEED (first seed, default 1; pair i uses SEED+i-1 — take
# one not used while writing the change), SECONDS_PER_RUN (default: the
# benchmark's own), TRACE=1 (also run and compare the traced per-layer
# metrics), OUT (work directory, default .bench_build/pair).
set -eu

BASE=${1:?usage: bench-pair.sh BASE [WORKLOAD] [PAIRS]}
WORKLOAD=${2:-all}
PAIRS=${3:-10}
SEED=${SEED:-1}
TRACE=${TRACE:-0}
ROOT=$(git rev-parse --show-toplevel)
OUT=${OUT:-$ROOT/.bench_build/pair}
case $OUT in /*) ;; *) OUT=$PWD/$OUT ;; esac

rm -rf "$OUT"
mkdir -p "$OUT/base"
git -C "$ROOT" archive "$BASE" | tar -x -C "$OUT/base"
rm -rf "$OUT/base/benchmark"
cp -R "$ROOT/benchmark" "$OUT/base/benchmark"
rm -rf "$OUT/base/benchmark/out"
cp "$ROOT/BENCHMARK.json" "$OUT/base/BENCHMARK.json"
(cd "$OUT/base" && go build -o "$OUT/bench.base" ./benchmark)
(cd "$ROOT" && go build -o "$OUT/bench.change" ./benchmark)

# run SIDE SEED TRACE DIR: one run of $WORKLOAD, leaving DIR/result.json.
run() {
	side=$1 seed=$2 trace=$3 dir=$4
	mkdir -p "$dir"
	set -- -seed "$seed" -trace "$trace" -dir "$OUT/scratch" -out "$dir"
	if [ -n "${SECONDS_PER_RUN:-}" ]; then
		set -- "$@" -seconds "$SECONDS_PER_RUN"
	fi
	if [ "$WORKLOAD" = all ]; then
		"$OUT/bench.$side" -workload all "$@" || [ $? = 1 ]
		return
	fi
	# One workload prints its summary as the last stdout line; wrap it
	# in the result.json shape -compare reads.
	"$OUT/bench.$side" -workload "$WORKLOAD" "$@" >"$dir/stdout" || [ $? = 1 ]
	printf '{"seed":%s,"traced":%s,"workloads":{"%s":%s}}\n' \
		"$seed" "$([ "$trace" = 1 ] && echo true || echo false)" \
		"$WORKLOAD" "$(tail -n 1 "$dir/stdout")" >"$dir/result.json"
}

i=1
while [ "$i" -le "$PAIRS" ]; do
	a=base b=change
	if [ $((i % 2)) = 0 ]; then a=change b=base; fi
	seed=$((SEED + i - 1))
	for side in $a $b; do
		echo "pair $i/$PAIRS: $side (seed $seed)" >&2
		if [ "$WORKLOAD" = all ]; then
			run "$side" "$seed" "$TRACE" "$OUT/$side.$i"
		else
			run "$side" "$seed" 0 "$OUT/$side.$i"
			if [ "$TRACE" = 1 ]; then
				run "$side" "$seed" 1 "$OUT/$side.traced.$i"
			fi
		fi
	done
	i=$((i + 1))
done

list() {
	ls "$OUT"/$1.[0-9]*/result.json | paste -sd, -
}
code=0
echo "== $BASE (a) vs working tree (b): $WORKLOAD, $PAIRS pairs, seeds $SEED..$((SEED + PAIRS - 1))"
"$OUT/bench.change" -spec "$ROOT/BENCHMARK.json" -compare "$(list base)" "$(list change)" || code=$?
if [ "$WORKLOAD" != all ] && [ "$TRACE" = 1 ]; then
	echo "== traced runs (per-layer metrics)"
	"$OUT/bench.change" -spec "$ROOT/BENCHMARK.json" -compare "$(list base.traced)" "$(list change.traced)" || code=$?
fi
exit $code
