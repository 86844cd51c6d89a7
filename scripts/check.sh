#!/usr/bin/env bash
# Repo-wide quality gate: formatting, lints, tests.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (workspace, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings \
    -W clippy::redundant_clone -W clippy::needless_collect

echo "== cargo test (workspace) =="
cargo test --workspace -q

echo "== wfbench builds and passes its smoke against this tree =="
# benchmark/ is a package of its own that may not be edited alongside the
# code it measures, so a climate_workflows API change that stops it
# compiling (or fails its --quick smoke) has to be caught here.
cargo test --offline --manifest-path benchmark/wfbench/Cargo.toml \
    --target-dir target/wfbench -q

echo "== obs bus ordering contract: one seq-ordered stream on a multi-lane run =="
# Subscriber queues must see strictly increasing seq whatever threads
# emit; the race this guards only shows with real concurrency, so repeat.
for t in 2 4; do
  for _ in 1 2 3 4 5; do
    PAR_THREADS="$t" cargo test --test observability_trace -q
  done
done

echo "== pool, cube engine + CNN inference: par, datacube, extremes and tinyml suites, serial and parallel =="
# Every cube operator and batch index runs on the fused engine; the
# differential suites prove it bitwise against the scalar oracle kernels.
# Run all targets of the crates single- and multi-threaded so lane
# blocking and fragment-parallel scheduling cannot change a single bit.
# tinyml rides along: its inference path is shared across pool lanes by
# `&self`, and its trainer splits every minibatch over the lanes, so its
# cached-chain oracle (tests/train_equivalence.rs) and its dispatch count
# (tests/train_dispatch.rs) run at each width, where a data race or an
# order dependence would show. par's own suites (the own-scope contract
# test and the oversubscription watchdogs among them) run at each width
# of the global pool too.
for t in 1 2 4; do
  PAR_THREADS="$t" cargo test -p par -p datacube -p extremes -p tinyml -q
done

echo "== bare reduce timing gate: reduce(Max) costs about what reduce(Sum) costs =="
# On the shape of wfbench's datacube.reduce_max_ms probe (13,824 x 362,
# release build) the median of 15 Max runs must stay within 1.5x the median
# of 15 Sum runs: both are sequential folds over one traversal, so a larger
# ratio is a Max-kernel regression (it once went 2.1 -> 12.3 ms unflagged).
cargo test --release -q -p datacube --test fused_conformance -- --ignored --exact \
    bare_reduce_max_costs_about_what_sum_costs

echo "== idle-bus timing gate: an unsubscribed emit_with costs at most 25 ns =="
# With no subscriber an emit is one relaxed atomic load and a never-taken
# branch; the median of 50 means over 2e6 calls (release build) must stay
# within the budget const in the test.
cargo test --release -q -p obs --test emit_overhead -- --ignored --exact \
    inactive_bus_emit_stays_within_budget

echo "== conv kernel timing gate: conv2's shape costs per MAC about what conv1's does =="
# The conv forward vectorises across output channels, so the CNN's conv2
# (8->16 at 8x8) may cost per multiply-add at most the bound const in the
# test times conv1 (4->8 at 16x16): medians of 31 interleaved reps,
# release build. Per-row or per-tap overhead shows as a larger ratio.
cargo test --release -q -p tinyml --test conv_timing -- --ignored --exact \
    conv2_shape_costs_per_mac_about_what_conv1_shape_costs

echo "== conv backward timing gate: a non-zero weight-gradient MAC costs a few forward MACs =="
# The weight-gradient kernel walks a 3x3 window inside the input as one
# unrolled block, so on conv1's shape (4->8 at 16x16, 80% of the output
# gradients zero) its median ns per non-zero multiply-add may be at most
# the bound const in the test times the forward's median ns/MAC: 31
# interleaved reps, release build. Per-row clipped slices show as a larger
# ratio.
cargo test --release -q -p tinyml --test conv_timing -- --ignored --exact \
    conv1_weight_grads_cost_a_few_forward_macs_per_nonzero_mac

echo "== CNN block timing gate: a block of 8 patches costs per patch well below one patch alone =="
# Every forward kernel runs a block of samples interleaved innermost, whose
# output channels x samples are independent add chains; on the TC-CNN's
# layers (release build) the median per-patch cost of
# Sequential::infer_block over a block of 8 may be at most the bound const
# in the test times the median cost of Sequential::infer on one patch: 31
# interleaved reps. A block kernel that runs its samples one after the
# other shows as a ratio near 1.
cargo test --release -q -p tinyml --test conv_timing -- --ignored --exact \
    a_block_of_patches_costs_per_patch_well_below_one_patch_alone

echo "== slab read gate: every step slab of a variable costs about one whole-variable read =="
# A slab is read as its coalesced contiguous runs, so reading all 240
# [1, 48, 72] step slabs of a [240, 48, 72] variable (the TC tracker's
# access pattern) may cost at most the bound const in the test times one
# read_shared_f32 of it: medians of 21 interleaved reps, release build.
# A plan that seeks and reads once per latitude row shows as 10-15x.
cargo test --release -q -p ncformat --test slab_timing -- --ignored --exact \
    step_slabs_cost_about_one_whole_variable_read

echo "== one engine: only Pipeline::run_scalar may name ops::scalar =="
# The scalar kernels are the oracle, not a second production path: outside
# tests/, benches/ and #[cfg(test)] modules nothing but run_scalar in
# datacube's fuse.rs may reference them (comments do not count).
leaks=$(find crates/*/src src examples -name '*.rs' \
    ! -path 'crates/datacube/src/ops/scalar.rs' -print0 | xargs -0 awk '
  FNR == 1 { in_test = 0; in_oracle = 0 }
  /#\[cfg\(test\)\]/ { in_test = 1 }
  in_test { next }
  FILENAME ~ /datacube\/src\/fuse\.rs$/ && /pub fn run_scalar/ { in_oracle = 1 }
  { code = $0; sub(/\/\/.*/, "", code) }
  !in_oracle && code ~ /ops::scalar|ops::\{[^}]*scalar|scalar::/ { print FILENAME ":" FNR ": " $0 }
  in_oracle && /^    }$/ { in_oracle = 0 }')
if [ -n "$leaks" ]; then
  echo "ops::scalar referenced outside Pipeline::run_scalar:" >&2
  echo "$leaks" >&2
  exit 1
fi

echo "== one ledger: report state is written only by the event fold =="
# dataflow::Runtime keeps one record of a run — monitor::StatusFold, whose
# only writer is observe() at each event emission. A counter bumped, a
# provenance record appended or a decision index kept anywhere else in
# the crate is a second bookkeeping path.
if git grep --untracked -nE 'metrics\.(completed|failed|cancelled|timed_out|restored|retries|task_durations|tasks_per_worker)\b.*(\+=|\.push)|record_provenance|decision_idx' \
    -- crates/dataflow/src ':!crates/dataflow/src/monitor.rs'; then
  echo "report state written outside crates/dataflow/src/monitor.rs" >&2
  exit 1
fi

echo "== chaos sites agree: every planned site is fired, every fired site is planned =="
# dataflow::inject's MENU is what a seeded plan may target; product code
# consults sites with obs::chaos::fire / obs::chaos::point. A MENU site
# that no product code fires plans faults that never land, and a fired
# site missing from MENU is one no seeded plan can reach. Sites reached
# only by hand-armed hooks are listed in `exempt` below. Non-test code is
# each file's lines before its first #[cfg(test)].
python3 - <<'EOF'
import glob, re, sys
exempt = {"esm.write_day"}  # Poison tears a day file; armed by hand in tests
inject = open("crates/dataflow/src/inject.rs").read()
consts = dict(re.findall(r'pub const (SITE_\w+): &str = "([^"]+)";', inject))
def resolve(arg):
    m = re.fullmatch(r'"([^"]+)"', arg)
    return m.group(1) if m else consts.get(arg.split("::")[-1])
menu_src = re.search(r"const MENU[^=]*= &\[(.*?)\n\];", inject, re.S).group(1)
menu = {resolve(a) or a for a in re.findall(r"^\s*\(([^,]+),", menu_src, re.M)}
fired, bad = set(), []
for path in sorted(glob.glob("crates/*/src/**/*.rs", recursive=True)):
    code = re.sub(r"//.*", "", open(path).read().split("#[cfg(test)]")[0])
    for m in re.finditer(r"chaos::(?:fire|point)\(\s*([^)]*?)\s*\)", code):
        site = resolve(m.group(1))
        line = code.count("\n", 0, m.start()) + 1
        if site is None:
            bad.append(f"{path}:{line}: fires a site that is no literal or SITE_ const: {m.group(1)}")
            continue
        fired.add(site)
        if site not in menu and site not in exempt:
            bad.append(f"{path}:{line}: fires '{site}', which is not in dataflow::inject's MENU")
for site in sorted(menu - fired):
    bad.append(f"crates/dataflow/src/inject.rs: MENU site '{site}' is fired by no product code")
if bad:
    print("\n".join(bad), file=sys.stderr)
    sys.exit(1)
print(f"chaos sites OK: {len(menu)} planned, {len(fired)} fired ({', '.join(sorted(fired))})")
EOF

echo "== dataflow lifecycle accounting under a thread sweep =="
# The fold is updated under the runtime lock from every worker thread; a
# lost update would show as a flaky count, so repeat at each pool width.
for t in 1 2 4; do
  for _ in 1 2 3; do
    PAR_THREADS="$t" cargo test -p dataflow -q
  done
done

echo "== reachability census: every pub fn is used outside its own module, and by product code or a named test =="
# The compiler decides: on a scratch copy the census makes each pub fn of
# crates/*/src private in turn, dropping it from any `pub use`. One the
# product (workspace --lib --bins, wfbench --bins) still compiles without
# is used by its own module only (make it private, delete it, or move it
# into the test module) or by tests only (delete it, or allowlist it as an
# oracle or probe with the test file that uses it).
python3 scripts/pub_fn_census.py

echo "== the census names three planted offenders =="
# On a scratch copy of the tree, plant a `pub fn write` called only in its
# own file, a `pub fn status` called only from a test and a `pub fn` that
# only a `pub use` re-exports. Other types' `.write(` and `.status(` calls
# are everywhere, so a census that matches names instead of asking the
# compiler misses the first two.
plant=$(mktemp -d)
# Only paths that exist: a tracked file deleted from the working tree (and
# not yet staged) is still listed by `--cached`.
git ls-files -z --cached --others --exclude-standard |
  while IFS= read -r -d '' f; do
    if [ -e "$f" ]; then printf '%s\0' "$f"; fi
  done | xargs -0 cp --parents -t "$plant"
cat > "$plant/crates/core/src/planted.rs" <<'RS'
pub struct PlantedWriter;
impl PlantedWriter {
    pub fn write(&self) {}
}
pub struct PlantedProbe;
impl PlantedProbe {
    pub fn status(&self) {}
}
pub fn planted_reexport() {}
fn caller() {
    PlantedWriter.write();
}
RS
printf 'pub mod planted;\npub use planted::planted_reexport;\n' >> "$plant/crates/core/src/lib.rs"
cat > "$plant/crates/core/tests/planted.rs" <<'RS'
#[test]
fn planted() {
    climate_workflows::planted::PlantedProbe.status();
}
RS
census="$PWD/scripts/pub_fn_census.py"
if (cd "$plant" && git init -q && git add -A && python3 "$census" crates/core/src/planted.rs) \
    > "$plant/census.out"; then
  echo "the census passed a tree with planted offenders" >&2
  exit 1
fi
for name in write status planted_reexport; do
  if ! grep -q "^crates/core/src/planted.rs: $name " "$plant/census.out"; then
    echo "the census did not name the planted offender $name:" >&2
    cat "$plant/census.out" >&2
    exit 1
  fi
done
rm -rf "$plant"

echo "== one measurement stack: the retired serving benchmark stays retired =="
# wfbench (benchmark/) is the only load generator and timing harness of the
# serving layer; the history files may still name what it replaced.
if git grep --untracked -nIiE 'serve[-_]?bench' -- . \
    ':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' ':!benchmark'; then
  echo "the retired serving benchmark is named outside CHANGES.md/ROADMAP.md/ISSUE.md/benchmark/" >&2
  exit 1
fi
# wfbench is also the only timing harness of the product: the paper-claim
# bench crate, its record file, its allocator feature and its budget
# variable stay deleted (the claims it timed are tests or cited records).
# The root-level markdown documents may still name them. Each name is
# spelled with a one-letter class so this line does not match itself.
if git grep --untracked -nE -e \
    '-p b[e]nch\b|records/b[e]nch\.jsonl|c[o]unt-alloc|O[B]S_OVERHEAD_BUDGET_NS|\bb[e]nch::' \
    -- . ':(top,glob,exclude)*.md' ':!benchmark'; then
  echo "the retired paper-claim bench crate is named outside the root-level markdown documents and benchmark/" >&2
  exit 1
fi

echo "== one placement rule: the scheduler portfolio stays deleted =="
# dataflow::Runtime places by one rule (an idle worker takes the oldest
# ready task its profile satisfies); the policy portfolio, its ranks, its
# transfer ledger, the knobs that selected it and the hand-rolled
# corrupt-file hook (now the obs::chaos site esm.write_day) were culled by
# record. The root-level markdown documents may still name them. Each name
# is spelled with a one-letter class so this line does not match itself.
if git grep --untracked -nwE \
    'H[e]ft|L[o]cality|T[r]ansferLedger|p[o]ll_hint|r[a]nk_us|u[p]ward_ranks|w[i]th_policy|s[c]hed_policy|p[o]licy_name|c[o]rrupt_file' \
    -- . ':(top,glob,exclude)*.md'; then
  echo "a deleted placement policy or knob is named outside the root-level markdown documents" >&2
  exit 1
fi

echo "== one record per fact: the registry stays deleted =="
# The event stream is the process's only record of what happened; the
# Prometheus dump and report's percentile table are folds of it
# (obs::prometheus, obs::histograms). A live metrics registry, its handle
# types or a per-layer mirror of events into one is a second record.
# hpcwaas's workflow `registry` field is a different thing and stays. The
# root-level markdown documents may still name the deleted symbols. Each
# name is spelled with a one-letter class so this line does not match itself.
if git grep --untracked -nE \
    '(obs|crate)::r[e]gistry\(|\bR[e]gistry\b|r[e]nder_prometheus|e[x]port_metrics|R[t]Metrics|obs::(C[o]unter|G[a]uge)' \
    -- . ':(top,glob,exclude)*.md'; then
  echo "a deleted metrics-registry symbol is named outside the root-level markdown documents" >&2
  exit 1
fi

echo "== one public surface: the builder and the ensemble stay deleted =="
# WorkflowParams is set one way — test_scale plus field assignment, or
# apply_inputs — and CaseStudy::new validates it; the fluent builder that
# duplicated both is gone, as is the ensemble driver no product path ran.
# The root-level markdown documents may still name them. Each name is
# spelled with a one-letter class so this line does not match itself.
if git grep --untracked -nE \
    'P[a]ramsBuilder|W[o]rkflowParams::builder|r[u]n_ensemble|m[e]an_and_spread' \
    -- . ':(top,glob,exclude)*.md'; then
  echo "a deleted builder or ensemble symbol is named outside the root-level markdown documents" >&2
  exit 1
fi

echo "== smoke workflow with span tracing =="
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
cargo run -q -p climate-workflows --bin climate-wf -- run --years 1 --days 2 \
    --out "$smoke/run" --trace "$smoke/trace.json" --metrics "$smoke/metrics.prom" \
    | tee "$smoke/run.out"
python3 - "$smoke/trace.json" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))
events = events if isinstance(events, list) else events["traceEvents"]
assert any(e["ph"] == "X" for e in events), "trace has no duration slices"
nested = sum(1 for e in events if e["ph"] == "X" and e.get("args", {}).get("parent", 0))
assert nested > 0, "trace has no parent-linked spans"
# Flow arrows only appear when a parent/child pair ended on different
# threads; at smoke scale that is scheduling-dependent, so just report.
flows = sum(1 for e in events if e["ph"] == "s")
print(f"chrome trace OK: {len(events)} events, {nested} nested spans, {flows} flow arrows")
EOF
# The dump is a fold of the run's events: its completed-task count is the
# report's.
grep -q "obs_bus_dropped_total" "$smoke/metrics.prom"
report_done=$(sed -n 's/^runtime: \([0-9][0-9]*\) completed.*/\1/p' "$smoke/run.out")
dump_done=$(sed -n 's/^dataflow_tasks_total{outcome="completed"} \([0-9][0-9]*\)$/\1/p' \
    "$smoke/metrics.prom")
if [ -z "$report_done" ] || [ "$report_done" != "$dump_done" ]; then
  echo "metrics dump says '$dump_done' completed tasks, the report '$report_done'" >&2
  exit 1
fi
echo "metrics dump OK: $dump_done completed tasks, as reported"

echo "== chaos smoke: seeded fault injection + checkpoint resume =="
cargo run -q -p climate-workflows --bin climate-wf -- chaos --seed 7 --faults 3 \
    --out "$smoke/chaos"
python3 - "$smoke/chaos/chaos-flight.jsonl" <<'EOF'
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
assert lines, "flight recorder dump is empty"
for l in lines:
    json.loads(l)
kinds = {json.loads(l).get("event") for l in lines}
assert "flight_dump" in kinds, "missing dump header record"
print(f"flight dump OK: {len(lines)} JSONL records, {len(kinds)} event kinds")
EOF

echo "== streaming equivalence: staged vs streaming bitwise, serial and parallel =="
# The streaming data plane must be a pure performance change: byte-identical
# products, incremental record indices matching the batch exports, and a
# kill/resume through the file fallback — independent of pool width.
for t in 1 4; do
  PAR_THREADS="$t" cargo test --test streaming_equivalence -q
done

echo "== streaming smoke: in-memory year handoff end to end =="
cargo run -q -p climate-workflows --bin climate-wf -- run --years 2 --days 3 \
    --streaming --out "$smoke/stream-run" > "$smoke/stream-run.out"
grep -q "climate-extremes workflow (streaming)" "$smoke/stream-run.out"
grep -q "^streaming: " "$smoke/stream-run.out"

echo "== one placement rule: oldest compatible ready task, estimates reported =="
cargo test -p dataflow --test scheduler_portfolio -q
cargo run -q -p climate-workflows --bin climate-wf -- report --years 1 --days 2 \
    --out "$smoke/place-run" > "$smoke/place-run.out"
grep -qE "^scheduling: [0-9]+ placements" "$smoke/place-run.out"
grep -q "estimate error: mean |est-actual|" "$smoke/place-run.out"

echo "All checks passed."
