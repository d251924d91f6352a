#!/bin/sh
# Full verification gate for the cloud-watching workspace:
#   formatting (`cargo fmt --all -- --check`, default rustfmt settings),
#   build, lints (clippy warnings are errors), the tests of every workspace
#   crate (`cargo test --workspace`: the root package's suites in tests/,
#   including the statistical oracle, metamorphic, null-calibration, and
#   registry-completeness ones, plus each member crate's unit tests and
#   crates/protocols/tests/props.rs), a build of the cwbench/
#   benchmark package (outside the workspace, so an API change that breaks
#   it would otherwise pass) and its own smoke test (every workload timed
#   and traced at scale 0.02, with the tracer's digest, coverage and
#   overhead checks), the benchmark's traced check at its own scale 1 and
#   default seed (`python3 cwbench/run.py --workload all --trace 1
#   --seconds 0`, whose coverage check a faster warm run can trip before
#   the scale-0.02 one does), doc build (warnings are errors), doctests,
#   the determinism check (`cw all` output must be
#   byte-identical across thread counts (1, 8) AND cache states: cold
#   cache, warm cache, --no-cache — and one cold --threads 8 row with its
#   own cache, where two worlds build at once, must write .cwsnap files
#   byte-identical to the --threads 1 baseline's), a
#   cold-vs-warm `cw all` timing line, the scan budget (and
#   scan counts identical at --threads 1 and 8), the on-demand scan gate
#   (each exhibit but `all`, run alone with --trace-scans, must run no
#   pass beyond the ones its declared plans cost at prefetch;
#   temporal_stability still scans on demand, is exempt and prints its
#   count),
#   and the golden-exhibit gate: all 25 out/*.txt are regenerated by the
#   single `cw` binary (one link step instead of 27) and must hash-match
#   the checked-in tests/golden/MANIFEST.sha256. After an intentional
#   exhibit change, re-bless with `CW_BLESS=1 cargo test --test golden`
#   and commit the new manifest (see docs/TESTING.md).
# Plus the fault-injection gates: explicit zero-rate fault flags must leave
#   the golden bytes untouched, `cw degrade` must be byte-identical cold vs
#   warm cache, with and without --trace-scans, and to `cw sweep --scales 1
#   --variants none,mild,moderate,severe` (one grid driver: degrade is the
#   sweep's fault-ladder preset), its scan summary must be the same at
#   --threads 1 and 8, and an
#   injected render panic (CW_INJECT_PANIC) must leave every other exhibit
#   rendered, with exit code 4 and a failure summary.
# Plus the sweep gates: `cw sweep` must be byte-identical cold vs warm and
#   an interrupted sweep (CW_INJECT_PANIC=sweep:<i>) must resume from the
#   snapshot cache. And the quarantine gate: `cw table1` on a warm cache
#   with one flipped payload byte must exit 0, warn, print the baseline
#   bytes and keep the damaged file as <name>.cwsnap.corrupt. Setting CW_SCALE_TESTS=1 additionally runs the opt-in
#   scale-10 smoke tier (tests/scale.rs).
# Usage: scripts/verify.sh [scale]   (default scale 0.05 for a quick run)
set -eu

cd "$(dirname "$0")/.."
scale="${1:-0.05}"

echo "==> cargo fmt --all -- --check (the workspace is rustfmt-clean)"
cargo fmt --all -- --check

echo "==> cargo build --release --workspace"
cargo build --release --workspace --quiet

echo "==> cargo clippy --workspace --all-targets (warnings are errors)"
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "==> cargo test -q --workspace (the root package and every member crate)"
cargo test -q --workspace

echo "==> cargo test --release (the SHA-extension block function, bulk snapshot decoders, cw CLI parser and malformed-flag table, optimised)"
cargo test --release -q -p cw-netsim -p cw-honeypot -p cw-core -p cw-bench

echo "==> cargo test --release tests/query.rs tests/plans.rs tests/snapshot.rs (the scan kernel's chunk loops, the streamed snapshot reader and its batch decoders, in the profile the benchmark times)"
cargo test --release -q -p cloud-watching --test query --test plans --test snapshot

echo "==> cargo build --release cwbench/ (the benchmark builds against this API)"
cargo build --release --quiet --manifest-path cwbench/Cargo.toml --target-dir target/cwbench

echo "==> python3 -m unittest discover -s cwbench (the benchmark's smoke test: every workload timed and traced at scale 0.02)"
python3 -m unittest discover -s cwbench -p 'test_*.py'

echo "==> python3 cwbench/run.py --workload all --trace 1 --seconds 0 (the benchmark's traced checks at scale 1, default seed)"
python3 cwbench/run.py --workload all --trace 1 --seconds 0

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> cargo test --doc -q --workspace (includes the QUERY.md doctests)"
cargo test --doc -q --workspace

cw="$(pwd)/target/release/cw"
now() { date +%s.%N; }
elapsed() { awk "BEGIN{printf \"%.1f\", $2 - $1}"; }

echo "==> docs: every registry exhibit id appears in the EXPERIMENTS.md mapping table"
missing=0
for name in $("$cw" list 2>/dev/null | awk '{print $1}'); do
    if ! grep -q "^| \`$name\`" EXPERIMENTS.md; then
        echo "    MISSING from EXPERIMENTS.md mapping table: $name" >&2
        missing=1
    fi
done
[ "$missing" -eq 0 ] || exit 1
echo "    all registry ids mapped"

echo "==> determinism: cw all --scale $scale across threads x cache states"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/t1" "$work/t8" "$work/nc" "$work/c8"
# Baseline: cold cache, 1 thread.
t0="$(now)"
(cd "$work/t1" && "$cw" all --scale "$scale" --threads 1 2>/dev/null)
t1="$(now)"
# Warm cache, 8 threads.
mkdir -p "$work/t8/out"
cp -r "$work/t1/out/.cache" "$work/t8/out/.cache"
t2="$(now)"
(cd "$work/t8" && "$cw" all --scale "$scale" --threads 8 2>/dev/null)
t3="$(now)"
# Cache bypassed: the worlds simulate afresh on 8 threads and must still
# match the baseline bytes.
(cd "$work/nc" && "$cw" all --scale "$scale" --threads 8 --no-cache 2>/dev/null)
# Cold cache of its own, 8 threads: worlds build at once on several
# workers, and the snapshots they write must be the baseline's bytes, not
# only render the same exhibits.
(cd "$work/c8" && "$cw" all --scale "$scale" --threads 8 2>/dev/null)
for f in "$work/t1/out"/*.txt "$work/t1/out"/*.csv; do
    cmp "$f" "$work/t8/out/${f##*/}"
    cmp "$f" "$work/nc/out/${f##*/}"
    cmp "$f" "$work/c8/out/${f##*/}"
done
snaps=0
for f in "$work/t1/out/.cache"/*.cwsnap; do
    cmp "$f" "$work/c8/out/.cache/${f##*/}"
    snaps=$((snaps + 1))
done
[ "$snaps" -eq "$(ls "$work/c8/out/.cache"/*.cwsnap | wc -l)" ] || {
    echo "    the --threads 8 cache holds other snapshots than the baseline's" >&2
    exit 1
}
echo "    byte-identical across thread counts (1, 8) and cache states (cold, warm, --no-cache)"
echo "    $snaps cold --threads 8 snapshots byte-identical to the --threads 1 baseline's"
echo "    cw all timing at scale $scale: cold $(elapsed "$t0" "$t1")s, warm $(elapsed "$t2" "$t3")s"

echo "==> scan budget: cw all --trace-scans fuses the registry's plans within the pinned bound"
# The per-bundle pass budget is pinned from a measured run (199/209/197
# passes at any scale — plan counts are structural, not data-dependent)
# with ~15% headroom. Declaring the Tables 7/10/14/15 fleet scans raised
# the counts to 199/211/202 (2020/2021/2022); the budget stays. A
# regression that stops plans from fusing (or an exhibit that declares a
# flood of unfusable plans) trips this before it shows up as wall-clock
# time.
budget=240
mkdir -p "$work/ts/out"
cp -r "$work/t1/out/.cache" "$work/ts/out/.cache"
(cd "$work/ts" && "$cw" all --scale "$scale" --threads 8 --trace-scans 2>"$work/ts/stderr.log")
for f in "$work/t1/out"/*.txt; do
    cmp "$f" "$work/ts/out/${f##*/}"   # --trace-scans is purely observational
done
grep "plan prefetch:" "$work/ts/stderr.log" || {
    echo "    missing per-bundle plan prefetch trace on stderr" >&2
    exit 1
}
awk -v budget="$budget" '
    /plan prefetch:/ {
        plans = $(NF - 5); passes = $(NF - 1)
        if (passes + 0 > budget + 0) {
            printf "    bundle %s: %s passes exceed the budget of %s\n", $5, passes, budget
            bad = 1
        }
        if (passes + 0 >= plans + 0) {
            printf "    bundle %s: %s plans fused into %s passes (no fusion)\n", $5, plans, passes
            bad = 1
        }
    }
    /scan summary:/ {
        split($4, f, "="); split($5, p, "=")
        summary = 1
        if (f[2] + 0 >= p[2] + 0) {
            printf "    scan summary: fused=%s is not below planned=%s\n", f[2], p[2]
            bad = 1
        }
    }
    END { if (!summary) { print "    missing scan summary line"; bad = 1 } exit bad }
' "$work/ts/stderr.log" || exit 1
echo "    per-bundle passes within budget ($budget); fused < planned process-wide"
# The same run at one thread, on the same cache: the prefetch spreads its
# passes over the fleet workers, so a pass skipped or run twice under
# threads would change these counts even where the rendered bytes match.
(cd "$work/ts" && "$cw" all --scale "$scale" --threads 1 --trace-scans 2>"$work/ts/stderr1.log")
grep -E "plan prefetch:|scan summary:" "$work/ts/stderr.log" >"$work/ts/scans8.log"
grep -E "plan prefetch:|scan summary:" "$work/ts/stderr1.log" >"$work/ts/scans1.log"
cmp "$work/ts/scans8.log" "$work/ts/scans1.log" || {
    echo "    plan prefetch / scan summary lines differ between --threads 8 and --threads 1" >&2
    exit 1
}
echo "    plan prefetch and scan summary lines identical at --threads 1 and --threads 8"

echo "==> on-demand scans: each exhibit's render runs only the passes its declared plans cost"
# `cw <name>` prefetches that one exhibit's declared plans, then renders:
# the `scan summary:` fused count must equal the summed `plan prefetch:`
# passes. temporal_stability is exempt: its per-region Telnet scans stay
# on demand, since declaring their 48 region domains per year would lift
# the 2020 and 2021 prefetch over the scan budget (247 and 258 passes);
# its on-demand count is printed. `all` is skipped: the `cw all` command
# shadows its exhibit.
exempt="temporal_stability"
bad=0
for name in $("$cw" list 2>/dev/null | awk '{print $1}'); do
    [ "$name" = all ] && continue
    (cd "$work/ts" && "$cw" "$name" --scale "$scale" --trace-scans >/dev/null 2>"$work/ts/one.log")
    on_demand=$(awk '
        /plan prefetch:/ { passes += $(NF - 1) }
        /scan summary:/ { split($4, f, "="); fused = f[2]; summary = 1 }
        END { if (summary) print fused - passes; else print "no scan summary" }
    ' "$work/ts/one.log")
    case " $exempt " in
        *" $name "*) echo "    exempt: $name ran $on_demand on-demand passes" ;;
        *)
            if [ "$on_demand" != 0 ]; then
                echo "    $name: $on_demand passes beyond its declared plans" >&2
                bad=1
            fi
            ;;
    esac
done
[ "$bad" -eq 0 ] || exit 1
echo "    every other exhibit's render ran 0 passes beyond its prefetch"

echo "==> fault matrix: explicit zero-rate fault flags leave the golden bytes untouched"
mkdir -p "$work/f0"
(cd "$work/f0" && "$cw" all --scale "$scale" --threads 8 --no-cache \
    --loss 0 --outage 0 --truncate 0 --telescope-sample 1 2>/dev/null)
for f in "$work/t1/out"/*.txt; do
    cmp "$f" "$work/f0/out/${f##*/}"
done
echo "    --loss 0 --outage 0 --truncate 0 --telescope-sample 1 is byte-identical to no flags"

echo "==> degrade sweep: cw degrade is deterministic, cold vs warm cache, and the sweep's ladder preset"
mkdir -p "$work/d1" "$work/d2/out"
(cd "$work/d1" && "$cw" degrade --scale 0.02 --threads 1 >degrade.txt 2>/dev/null)
cp -r "$work/d1/out/.cache" "$work/d2/out/.cache"
(cd "$work/d2" && "$cw" degrade --scale 0.02 --threads 8 >degrade.txt 2>/dev/null)
cmp "$work/d1/degrade.txt" "$work/d2/degrade.txt"
# --trace-scans is purely observational, and each rung's evaluation store
# runs the same passes on one worker as on eight.
for n in 1 8; do
    (cd "$work/d2" && "$cw" degrade --scale 0.02 --threads "$n" --trace-scans \
        >"traced$n.txt" 2>"traced$n.log")
    cmp "$work/d2/degrade.txt" "$work/d2/traced$n.txt"
    grep "scan summary:" "$work/d2/traced$n.log" >"$work/d2/scans$n.log" || {
        echo "    cw degrade --trace-scans printed no scan summary" >&2
        exit 1
    }
done
cmp "$work/d2/scans1.log" "$work/d2/scans8.log" || {
    echo "    cw degrade scan summary differs between --threads 1 and --threads 8" >&2
    exit 1
}
echo "    $(cat "$work/d2/scans8.log")"
# One grid driver: `cw degrade` is `cw sweep` over the fault ladder at x1.
(cd "$work/d2" && "$cw" sweep --scale 0.02 --scales 1 --variants none,mild,moderate,severe \
    --threads 8 >ladder.txt 2>/dev/null)
cmp "$work/d2/degrade.txt" "$work/d2/ladder.txt"
echo "    degrade report byte-identical cold vs warm, across thread counts, with --trace-scans and to the sweep ladder grid"

echo "==> scale sweep: cw sweep is simulate-once — cold == warm bytes, interrupted run resumes"
mkdir -p "$work/sw"
# Cold: both cells simulate. Warm: both are snapshot hits. Same bytes.
(cd "$work/sw" && "$cw" sweep --scale 0.02 --scales 1,2 --threads 1 >cold.txt 2>/dev/null)
(cd "$work/sw" && "$cw" sweep --scale 0.02 --scales 1,2 --threads 1 >warm.txt 2>/dev/null)
cmp "$work/sw/cold.txt" "$work/sw/warm.txt"
# Interrupted on the second world-obtain, then resumed: the completed cell
# must come from the cache, and the resumed report must match.
mkdir -p "$work/swr"
set +e
(cd "$work/swr" && CW_INJECT_PANIC=sweep:1 "$cw" sweep --scale 0.02 --scales 1,2 --threads 1 \
    >/dev/null 2>&1)
code=$?
set -e
[ "$code" -ne 0 ] || { echo "    injected sweep panic must abort the run" >&2; exit 1; }
(cd "$work/swr" && "$cw" sweep --scale 0.02 --scales 1,2 --threads 1 >resumed.txt 2>"$work/swr/stderr.log")
cmp "$work/sw/cold.txt" "$work/swr/resumed.txt"
grep -q "snapshot hit" "$work/swr/stderr.log" || {
    echo "    resumed sweep must reload the completed cell from the cache" >&2
    exit 1
}
echo "    sweep report byte-identical cold vs warm; interrupted sweep resumed from cache"

echo "==> quarantine: a snapshot with one flipped payload byte is set aside and re-simulated"
# A cold `cw table1` caches exactly the worlds table1 reads, so whichever
# snapshot is damaged, the warm run below streams it, fails its digest,
# quarantines it and re-simulates: same stdout, exit 0, a warning, and
# the damaged file kept as <name>.cwsnap.corrupt.
mkdir -p "$work/q0" "$work/q1/out"
(cd "$work/q0" && "$cw" table1 --scale "$scale" >table1.txt 2>/dev/null)
cp -r "$work/q0/out/.cache" "$work/q1/out/.cache"
snapq=$(ls "$work/q1/out/.cache"/*.cwsnap | head -n 1)
at=$(($(wc -c <"$snapq") / 2))
byte=$(dd if="$snapq" bs=1 skip="$at" count=1 2>/dev/null | od -An -tu1 | tr -d ' ')
printf "$(printf '\\%03o' $((byte ^ 1)))" |
    dd of="$snapq" bs=1 seek="$at" count=1 conv=notrunc 2>/dev/null
if cmp -s "$snapq" "$work/q0/out/.cache/${snapq##*/}"; then
    echo "    the payload byte was not flipped" >&2
    exit 1
fi
(cd "$work/q1" && "$cw" table1 --scale "$scale" >table1.txt 2>stderr.log)
grep -q "quarantined corrupt snapshot" "$work/q1/stderr.log" || {
    echo "    no quarantine warning for the damaged snapshot" >&2
    exit 1
}
cmp "$work/q0/table1.txt" "$work/q1/table1.txt"
[ -f "$snapq.corrupt" ] || { echo "    ${snapq##*/}.corrupt was not kept" >&2; exit 1; }
cmp "$work/q0/out/.cache/${snapq##*/}" "$snapq"
echo "    quarantined ${snapq##*/}: exit 0, warning, stdout unchanged, cache healed"

echo "==> scale tier (opt-in): CW_SCALE_TESTS=1 runs the scale-10 smoke tests"
if [ "${CW_SCALE_TESTS:-0}" = "1" ]; then
    CW_SCALE_TESTS=1 cargo test -q --test scale
    echo "    scale-10 smoke tier passed"
else
    echo "    skipped (set CW_SCALE_TESTS=1 to run)"
fi

echo "==> graceful degradation: an injected render panic must not take cw all down"
mkdir -p "$work/inj/out"
cp -r "$work/t1/out/.cache" "$work/inj/out/.cache"
set +e
(cd "$work/inj" && CW_INJECT_PANIC=table1 "$cw" all --scale "$scale" --threads 8 \
    2>"$work/inj/stderr.log")
code=$?
set -e
[ "$code" -eq 4 ] || { echo "    expected exit 4 from injected panic, got $code" >&2; exit 1; }
[ ! -f "$work/inj/out/table1.txt" ] || { echo "    table1.txt must not be written" >&2; exit 1; }
n_txt=$(ls "$work/inj/out"/*.txt | wc -l)
n_reg=$("$cw" list 2>/dev/null | wc -l)
[ "$n_txt" -eq $((n_reg - 1)) ] || {
    echo "    expected $((n_reg - 1)) rendered exhibits, got $n_txt" >&2
    exit 1
}
grep -q "failure summary" "$work/inj/stderr.log" || {
    echo "    missing per-job failure summary on stderr" >&2
    exit 1
}
for f in "$work/inj/out"/*.txt; do
    cmp "$f" "$work/t1/out/${f##*/}"
done
echo "    exit 4, failure summary on stderr, all 24 sibling exhibits byte-identical"

echo "==> golden exhibits: regenerate all 25 out/*.txt via cw and check the manifest"
"$cw" all 2>/dev/null
cargo test -q --test golden
echo "    all exhibits hash-match tests/golden/MANIFEST.sha256"

echo "verify: OK"
