#!/usr/bin/env python3
"""Reachability census of every `pub fn` of crates/*/src declared before a
file's first #[cfg(test)]. Two passes, both name-based on purpose: a homonym
(`new`, `len`, a same-named method of another type) keeps a function alive.
The gate is cheap and has no false alarms; it catches the function whose name
nothing else in the tree says.

Pass 1, reachability: the name must be said on some tracked *.rs line that is
neither a declaration of that name nor inside the #[cfg(test)] tail of a
crates/*/src file. Comments do not count.

Pass 2, product census: the name must be said by product code -- non-test
lines of crates/*/src or benchmark/. A function only tests or examples name
is either deleted or listed in ALLOWLIST with the test file that uses it as
an oracle (the reference an optimised path is checked against) or a contract
probe (a read a test asserts a stated guarantee through). An entry fails when
its file no longer names the function in test code, and when the function
gains a product caller or is gone (the entry is then stale).

Prints offenders as `file: name` with the reason, then one count line per
pass; exits 1 when either pass has offenders.
"""
import re
import subprocess
import sys

# (declaring file, function names) -> (test file, why it stays).
ALLOWLIST = {
    ("crates/extremes/src/heatwave.rs", ("wave_count", "wave_frequency", "exceedance_mask")):
        ("crates/extremes/tests/proptest_extremes.rs",
         "oracle: per-cell scans the fused batch indices are checked against"),
    ("crates/extremes/src/etccdi.rs",
     ("exceedance_rate", "deficit_rate", "spell_duration_index")):
        ("crates/extremes/tests/proptest_extremes.rs",
         "oracle: per-cell ETCCDI definitions the batch indices are checked against"),
    ("crates/datacube/src/fuse.rs", ("run_scalar",)):
        ("crates/datacube/tests/fused_conformance.rs",
         "oracle: the scalar kernels the fused engine is proven bitwise against"),
    ("crates/gridded/src/field.rs", ("area_mean",)):
        ("crates/esm/src/model.rs",
         "oracle: the area-weighted global mean the ESM physics tests assert on"),
    ("crates/par/src/pool.rs", ("jobs_run",)):
        ("crates/datacube/tests/ingest_cost.rs",
         "probe: the pool-job count the ingest grain gate reads"),
    ("crates/dataflow/src/monitor.rs", ("apply_event",)):
        ("crates/dataflow/tests/ledger_replay.rs",
         "probe: replaying a saved stream must reproduce the live fold"),
    ("crates/dataflow/src/inject.rs", ("consultations",)):
        ("tests/chaos_suite.rs",
         "probe: a seeded fault plan must actually reach its sites"),
    ("crates/dataflow/src/runtime.rs", ("task_state",)):
        ("tests/fault_tolerance_e2e.rs",
         "probe: a failure cancels exactly its subtree"),
    ("crates/dataflow/src/payload.rs", ("from_u64", "as_u64")):
        ("crates/dataflow/tests/proptest_dag.rs",
         "probe: writes and reads back the task outputs of the DAG property tests"),
    ("crates/dataflow/src/provenance.rs", ("lineage",)):
        ("tests/provenance_e2e.rs",
         "probe: every product's provenance links back to the simulation"),
    ("crates/datacube/src/model.rs", ("same_buffer",)):
        ("crates/datacube/tests/proptest_zero_copy.rs",
         "probe: subsets and identity chains share, not copy, their payload"),
    ("crates/datacube/src/server.rs", ("resident_cubes",)):
        ("crates/datacube/tests/ingest.rs",
         "probe: a failed import stores no cube"),
    ("crates/hpcwaas/src/api.rs", ("deployment_cost_ms",)):
        ("tests/e2e_hpcwaas.rs",
         "probe: a warm redeploy reuses cached images (claim C5)"),
    ("crates/tinyml/src/tensor.rs", ("at3",)):
        ("crates/tinyml/tests/parallel_equivalence.rs",
         "oracle: the per-pixel conv nests the lane and fused kernels are checked against"),
    ("crates/hpcwaas/src/dls.rs", ("history",)):
        ("tests/e2e_hpcwaas.rs",
         "probe: staging moves the declared bytes once (claim A2)"),
}

SRC = re.compile(r"^crates/[^/]+/src/")
PRODUCT = re.compile(r"^(crates/[^/]+/src/|benchmark/)")
DECL = re.compile(r"\bpub fn\s+([A-Za-z_][A-Za-z0-9_]*)")
FN = re.compile(r"\bfn\s+([A-Za-z_][A-Za-z0-9_]*)")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

files = subprocess.run(
    ["git", "ls-files", "--cached", "--others", "--exclude-standard", "*.rs"],
    check=True, capture_output=True, text=True).stdout.split()

decls = []  # (file, name)
live, tail, product = set(), set(), set()  # names said outside / inside unit-test tails; by product code
test_words = {}  # file -> names its test code says
for path in files:
    try:
        lines = open(path, encoding="utf-8").read().splitlines()
    except FileNotFoundError:  # deleted but not yet staged
        continue
    in_src = bool(SRC.match(path))
    is_product = bool(PRODUCT.match(path))
    in_tail = False
    for line in lines:
        in_tail = in_tail or (in_src and "#[cfg(test)]" in line)
        code = line.split("//", 1)[0]
        if in_src and not in_tail:
            decls += [(path, n) for n in DECL.findall(code)]
        words = set(WORD.findall(code)) - set(FN.findall(code))
        (tail if in_tail else live).update(words)
        if is_product and not in_tail:
            product.update(words)
        elif in_tail or not in_src:
            test_words.setdefault(path, set()).update(words)

offenders = [(f, n) for f, n in decls if n not in live]
for f, n in offenders:
    print(f"{f}: {n}  ({'unit tests only' if n in tail else 'unreferenced'})")
unref = sum(1 for _, n in offenders if n not in tail)
print(f"pass 1: {len(decls)} pub fn, {unref} unreferenced, "
      f"{len(offenders) - unref} named only from #[cfg(test)] modules")

allowed = {(f, n): (test, why) for (f, names), (test, why) in ALLOWLIST.items() for n in names}
unlisted, bad_entries = [], []
for f, n in decls:
    if n in live and n not in product and (f, n) not in allowed:
        unlisted.append((f, n))
for (f, n), (test, _) in sorted(allowed.items()):
    if (f, n) not in decls:
        bad_entries.append(f"{f}: {n}  (allowlisted but no longer declared there)")
    elif n in product:
        bad_entries.append(f"{f}: {n}  (allowlisted but now has a product caller)")
    elif n not in test_words.get(test, ()):
        bad_entries.append(f"{f}: {n}  (allowlisted for {test}, whose tests no longer name it)")
for f, n in unlisted:
    print(f"{f}: {n}  (no product caller: delete it or allowlist the test that needs it)")
for line in bad_entries:
    print(line)
print(f"pass 2: {len(allowed)} allowlisted oracle/probe name(s), {len(unlisted)} unlisted, "
      f"{len(bad_entries)} stale allowlist entr{'y' if len(bad_entries) == 1 else 'ies'}")
sys.exit(1 if offenders or unlisted or bad_entries else 0)
