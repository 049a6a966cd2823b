#!/bin/sh
# Run every `riwfa reproduce` preset, every demo and a fixed set of `run`,
# `check` and `sweep` commands from this checkout's sources and keep
# everything each one leaves: its files, its stdout, its stderr and its exit
# code.
#
#   scripts/reproduce_all.sh OUT_DIR
#
# All six presets run at --jobs 1; fig1 and fig3 run twice more at
# --realizations 2, at --jobs 1 and --jobs 2, and table3 at --jobs 4, which
# plays its one run without a worker process. `sweep-eps-jobs2`,
# `sweep-delta0-jobs2`, `sweep-simultaneous-jobs2` and `sweep-warning-jobs2`
# are `sweep-eps`, `sweep-delta0`, `sweep-simultaneous` and `sweep-warning` at
# --jobs 2; the second sends probabilistic specs to the workers, the third
# plays simultaneous ticks on a batch of games in each, and the fourth warns
# once, in the calling process. After all runs the script compares each
# --jobs 2 or 4 run with its --jobs 1 twin and prints one line per pair, then
# compares every file's SHA-256 with the committed manifest
# scripts/reproduce_all.sha256 (see scripts/manifest.py) and prints each file
# that was added, is missing or changed. It exits 1 if any pair differs by a
# byte or any file differs from the manifest; a change that moves output on
# purpose rewrites the manifest in the same commit, with
#   python3 scripts/manifest.py OUT_DIR >scripts/reproduce_all.sha256
# from a fresh OUT_DIR. Each demo runs inside its own directory, where
# uncertainty_sweeps.py also writes its CSVs to the relative directory csv/,
# so no absolute path enters its output. The fixed commands run the same
# way, each in OUT_DIR/cli-<name>. Running the script in two checkouts and
# then `diff -r OUT_A OUT_B` shows every output byte the change between them
# moved. On a 2-core VM fig2 and fig4 take about 1.6 s together (medians of
# 8 interleaved rounds: 0.29 s and 1.27 s), and the whole script took
# 15.5-15.6 s in three runs.
set -u

if [ $# -ne 1 ]; then
    echo "usage: $0 OUT_DIR" >&2
    exit 1
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1" || exit 1
out=$(cd "$1" && pwd)

reproduce() {
    name=$1
    shift
    dir="$out/$name"
    mkdir -p "$dir"
    PYTHONPATH="$root/src" python3 -m riwfa reproduce "$@" --out-dir "$dir" \
        >"$dir/stdout.txt" 2>"$dir/stderr.txt"
    echo $? >"$dir/exit_code.txt"
    echo "$name: exit $(cat "$dir/exit_code.txt")"
}

for preset in table3 table4 fig1 fig2 fig3 fig4; do
    reproduce "$preset" "$preset" --jobs 1
done
for preset in fig1 fig3; do
    reproduce "$preset-r2" "$preset" --realizations 2 --jobs 1
    reproduce "$preset-r2-jobs2" "$preset" --realizations 2 --jobs 2
done
reproduce table3-jobs4 table3 --jobs 4

demo() {
    name=$1
    shift
    dir="$out/demo-$name"
    mkdir -p "$dir"
    (cd "$dir" && PYTHONPATH="$root/src" python3 "$root/demos/$name.py" "$@" \
        >stdout.txt 2>stderr.txt; echo $? >exit_code.txt)
    echo "demo $name: exit $(cat "$dir/exit_code.txt")"
}

for path in "$root"/demos/*.py; do
    name=$(basename "$path" .py)
    if [ "$name" = uncertainty_sweeps ]; then
        demo "$name" --out csv
    else
        demo "$name"
    fi
done

cli() {
    name=$1
    shift
    dir="$out/cli-$name"
    mkdir -p "$dir"
    (cd "$dir" && PYTHONPATH="$root/src" python3 -m riwfa "$@" \
        >stdout.txt 2>stderr.txt; echo $? >exit_code.txt)
    echo "cli $name: exit $(cat "$dir/exit_code.txt")"
}

small="--users 4 --subchannels 16 --seed 3"
for ensemble in low high; do
    for schedule in sequential simultaneous; do
        cli "run-$ensemble-$schedule" run --generate $ensemble $small --eps 0.5 \
            --schedule $schedule --max-iter 300 --out report.json --trajectory trajectory.csv
    done
    cli "run-$ensemble-asynchronous" run --generate $ensemble $small --eps 0.5 \
        --schedule asynchronous --update-prob 0.5 --max-staleness 2 --schedule-seed 1 \
        --max-iter 300 --out report.json --trajectory trajectory.csv
done
cli check-nominal check --generate high --seed 5 --mode nominal --out check.json
cli check-worstcase check --generate high --seed 5 --eps 0.5 --out check.json
cli check-probabilistic check --generate low --seed 5 --mode probabilistic --eps 0.5 \
    --delta0 0.8 --out check.json
cli sweep-eps sweep --generate low $small --eps-grid 0,0.5,1 --realizations 3 --out sweep.csv
cli sweep-eps-jobs2 sweep --generate low $small --eps-grid 0,0.5,1 --realizations 3 --jobs 2 \
    --out sweep.csv
cli sweep-delta0 sweep --generate high $small --delta0-grid 0,0.5,1 --eps 0.8 \
    --realizations 3 --max-iter 300 --out sweep.csv
cli sweep-delta0-jobs2 sweep --generate high $small --delta0-grid 0,0.5,1 --eps 0.8 \
    --realizations 3 --max-iter 300 --jobs 2 --out sweep.csv
# a batch of nine games under simultaneous ticks, each tick one reply call; on
# low draws they converge, so the CSV's utilities show every reply's last bit
# (on high draws at this size every simultaneous run cycles and shows none)
cli sweep-simultaneous sweep --generate low $small --eps-grid 0,0.5,1 --schedule simultaneous \
    --realizations 3 --max-iter 300 --out sweep.csv
cli sweep-simultaneous-jobs2 sweep --generate low $small --eps-grid 0,0.5,1 \
    --schedule simultaneous --realizations 3 --max-iter 300 --jobs 2 --out sweep.csv
# a sweep whose multipliers reach <= 0: one `warning:` line on stderr, with no
# source path, whatever --jobs
degenerate="--generate low --users 3 --subchannels 4 --seed 1 --mode probabilistic --eps 2.5"
cli sweep-warning sweep $degenerate --delta0-grid 0.1,0.9 --realizations 2
cli sweep-warning-jobs2 sweep $degenerate --delta0-grid 0.1,0.9 --realizations 2 --jobs 2
cli run-high-k1 run --generate high --users 9 --subchannels 1 --seed 1 --out report.json
# sequential play whose tick-start profile first repeats at tick 8, with
# period 5, and is fast-forwarded to the cap: its files are those of all 300
# ticks
cli run-high-cycle run --generate high --users 6 --subchannels 8 --seed 35 --max-iter 300 \
    --out report.json --trajectory trajectory.csv --summary summary.csv
# the same cycling run with a cap far past its repeat and no per-tick log: the
# run keeps nothing for the ticks it fills in, and its search for a repeat
# holds one copy per bit of the cap, 40 here
cli run-high-cycle-uncapped run --generate high --users 6 --subchannels 8 --seed 35 \
    --max-iter 1000000000000 --out report.json
# an asynchronous run whose cap lies far past its stop: the schedule draws only
# the ticks the run plays, so the cap costs neither time nor memory
cli run-async-uncapped run --generate low --users 2 --subchannels 2 --schedule asynchronous \
    --max-iter 1000000000000 --out report.json
# an asynchronous run whose staleness bound lies far past its cap: it keeps at
# most one copy per tick of the cap, and plays to the cap
cli run-async-huge-staleness run --generate low --users 2 --subchannels 2 --schedule asynchronous \
    --max-staleness 1000000000 --max-iter 20
# a usage mistake, a float flag given a word: one error line, like every input error
cli usage-error run --generate low --eps abc
# an eps whose worst-case interference overflows float64: one error line each
cli run-overflow run --generate high --users 2 --subchannels 2 --eps 1e308
cli check-overflow check --generate high --users 2 --subchannels 2 --eps 1e308
# a gain ratio, 1e10 / 1e-300, that overflows float64 under masks small enough
# to keep the interference finite: one error line
mkdir -p "$out/cli-check-ratio-overflow"
cat >"$out/cli-check-ratio-overflow/ratio.json" <<'JSON'
{"M": 2, "K": 1, "gains": [[[1e-300], [1e10]], [[1e10], [1e-300]]], "noise": [[0.0], [0.0]],
 "p_max": [1.0, 1.0], "mask": [[1e-10], [1e-10]], "eps": [[0.0], [0.0]], "mode": "nominal",
 "seed": null}
JSON
cli check-ratio-overflow check --scenario ratio.json
# an eps whose squares overflow float64 while its certificate terms, about
# sqrt(8) * 1e200, do not
cli check-huge-eps check --generate low --eps 1e200 --out check.json
# perfbench's high-cycle-00 draw at seed 7, on which sequential play cycles
# with period 4, logged to a cap of 20000 ticks: the summary computes each
# distinct tick's utility once, however many laps repeat it
draws=$(mktemp -d)
(cd "$draws" && python3 -c 'import sys; sys.path.insert(0, sys.argv[1])
import workloads; workloads.BUILDERS["high-cycle"](7, ".")' "$root/perfbench")
mkdir -p "$out/cli-summary-cycle"
cp "$draws/high-cycle-00.json" "$out/cli-summary-cycle/"
rm -r "$draws"
cli summary-cycle run --scenario high-cycle-00.json --max-iter 20000 --out report.json \
    --summary summary.csv

# output does not depend on --jobs: each --jobs twin must equal its --jobs 1 run
status=0
for pair in "cli-sweep-eps cli-sweep-eps-jobs2" "cli-sweep-delta0 cli-sweep-delta0-jobs2" \
        "cli-sweep-simultaneous cli-sweep-simultaneous-jobs2" \
        "cli-sweep-warning cli-sweep-warning-jobs2" \
        "table3 table3-jobs4" "fig1-r2 fig1-r2-jobs2" "fig3-r2 fig3-r2-jobs2"; do
    set -- $pair
    if diff -r "$out/$1" "$out/$2" >/dev/null; then
        echo "jobs twins $1 $2: identical"
    else
        echo "jobs twins $1 $2: DIFFER"
        status=1
    fi
done
python3 "$root/scripts/manifest.py" "$out" "$root/scripts/reproduce_all.sha256" || status=1
exit $status
