#!/usr/bin/env python3
"""Reachability census of every `pub fn` of crates/*/src declared before a
file's first #[cfg(test)], decided by the compiler.

On a scratch copy of the tree (`mktemp -d`, with its own target directory)
each `pub fn` in turn is made private and dropped from any `pub use` that
re-exports it, so a re-export alone never counts as a use. Then:

  product check  `cargo check --workspace --lib --bins`, and `--bins` of
                 benchmark/wfbench;
  test check     `--all-targets` of both, plus the declaring crate's doctests.

Pass 1, reachability: if both checks still pass, nothing outside the
function's own module uses it -- make it private or delete it.

Pass 2, product census: if only the product check passes, only tests or
examples use it. It is then deleted or listed in ALLOWLIST with the test file
that uses it as an oracle (the reference an optimised path is checked
against) or a contract probe (a read a test asserts a stated guarantee
through). An entry fails when making the function private no longer breaks
that file, and when the function gains a product caller or is gone (the
entry is then stale).

One exemption: an `is_empty` beside a product-live `pub fn len(&self)` of the
same impl block, which clippy's `len_without_is_empty` requires.

Usage: scripts/pub_fn_census.py [FILE...]  (run from the repository root;
with FILEs, probes only the `pub fn`s declared in them). Prints offenders as
`file: name  (reason)`, then one count line per pass; exits 1 when either pass
has offenders.
"""
import os
import re
import shutil
import subprocess
import sys
import tempfile

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
    ("crates/par/src/lib.rs", ("par_chunks_mut",)):
        ("crates/par/tests/proptest_par.rs",
         "probe: chunked writes match serial chunks_mut on pools of every width, one included"),
    ("crates/par/src/pool.rs", ("jobs_run",)):
        ("crates/datacube/tests/ingest_cost.rs",
         "probe: the pool-job count the ingest grain gate reads"),
    ("crates/dataflow/src/monitor.rs", ("apply_event",)):
        ("crates/dataflow/tests/ledger_replay.rs",
         "probe: replaying a saved stream must reproduce the live fold"),
    ("crates/dataflow/src/inject.rs", ("consultations",)):
        ("tests/chaos_suite.rs",
         "probe: a seeded fault plan must actually reach its sites"),
    ("crates/dataflow/src/inject.rs", ("for_sites",)):
        ("tests/chaos_suite.rs",
         "probe: a fault plan confined to the task site, so every fault lands on a task"),
    ("crates/dataflow/src/runtime.rs", ("subscribe",)):
        ("tests/chaos_suite.rs",
         "probe: a chaos run's own event stream must show every task reach a terminal state"),
    ("crates/dataflow/src/payload.rs", ("from_u64", "as_u64")):
        ("crates/dataflow/tests/proptest_dag.rs",
         "probe: writes and reads back the task outputs of the DAG property tests"),
    ("crates/dataflow/src/provenance.rs", ("lineage", "records")):
        ("tests/provenance_e2e.rs",
         "probe: every product's provenance links back to the simulation"),
    ("crates/dataflow/src/provenance.rs", ("task",)):
        ("crates/dataflow/tests/provenance_monitoring.rs",
         "probe: a task's record (inputs, outputs, final state) is found by its id"),
    ("crates/dataflow/src/runtime.rs", ("status",)):
        ("tests/provenance_e2e.rs",
         "probe: the live status view drains to quiescence (the paper's monitoring capability)"),
    ("crates/dataflow/src/monitor.rs", ("total",)):
        ("tests/provenance_e2e.rs",
         "probe: the status view accounts for every submitted task"),
    ("crates/dataflow/src/resources.rs", ("cpu",)):
        ("crates/dataflow/tests/scheduler_portfolio.rs",
         "probe: placement honours a CPU constraint on a mixed CPU/GPU pool"),
    ("crates/datacube/src/model.rs", ("same_buffer",)):
        ("crates/datacube/tests/proptest_zero_copy.rs",
         "probe: an identity chain shares, not copies, its payload"),
    ("crates/datacube/src/server.rs", ("apply",)):
        ("crates/datacube/tests/concurrent_sessions.rs",
         "probe: Listing 1's apply-reduce chains run concurrently against one server"),
    ("crates/datacube/src/server.rs", ("resident_cubes",)):
        ("crates/datacube/tests/ingest.rs",
         "probe: a failed import stores no cube"),
    ("crates/hpcwaas/src/api.rs", ("deployment_cost_ms",)):
        ("tests/e2e_hpcwaas.rs",
         "probe: a warm redeploy reuses cached images (claim C5)"),
    ("crates/hpcwaas/src/api.rs", ("undeploy",)):
        ("tests/e2e_hpcwaas.rs",
         "probe: the user journey ends in an undeploy, after which runs are refused"),
    ("crates/hpcwaas/src/containers.rs", ("builds",)):
        ("tests/e2e_hpcwaas.rs",
         "probe: each image is built once, then served from the layer cache (claim C5)"),
    ("crates/tinyml/src/tensor.rs", ("at3",)):
        ("crates/tinyml/tests/parallel_equivalence.rs",
         "oracle: the per-pixel conv nests the lane and fused kernels are checked against"),
    ("crates/hpcwaas/src/dls.rs", ("history",)):
        ("tests/e2e_hpcwaas.rs",
         "probe: staging moves the declared bytes once (claim A2)"),
    ("crates/esm/src/output.rs", ("daily_payload_bytes",)):
        ("tests/paper_scale.rs",
         "probe: a written file's size is the predicted payload (Section 5.2 arithmetic)"),
    ("crates/hpcwaas/src/api.rs", ("events",)):
        ("crates/hpcwaas/tests/serve.rs",
         "probe: coalesced submitters observe the one execution's record"),
    ("crates/hpcwaas/src/api.rs", ("status", "id", "tenant", "is_terminal")):
        ("crates/hpcwaas/tests/serve.rs",
         "probe: a handle and its tenant-bound ledger id report one status (the end-user API)"),
    ("crates/hpcwaas/src/orchestrator.rs", ("derive",)):
        ("tests/e2e_hpcwaas.rs",
         "probe: the plan derived from the climate topology has Figure 2's structure"),
    ("crates/hpcwaas/src/tosca.rs", ("parse",)):
        ("crates/hpcwaas/tests/proptest_tosca.rs",
         "probe: a topology document round-trips through to_source and parse"),
    ("crates/tinyml/src/train.rs", ("grads",)):
        ("crates/tinyml/tests/train_equivalence.rs",
         "probe: the two-phase trainer's gradients, pinned bitwise to the cached-chain oracle"),
    ("crates/core/src/endtoend.rs", ("register_with_hpcwaas",)):
        ("tests/e2e_hpcwaas.rs",
         "probe: the workflow deployed and run through the Execution API end to end"),
}

SRC = re.compile(r"^crates/([^/]+)/src/")
DECL = re.compile(r"^([ \t]*)pub (?:const )?fn ([A-Za-z_][A-Za-z0-9_]*)", re.M)
PUB_USE = re.compile(r"^[ \t]*pub use ([^;]*);[ \t]*\n", re.M)
DOCTEST = re.compile(r"^[ \t]*//[/!] ```(?:rust)?[ \t]*$", re.M)
ERROR_AT = re.compile(r"^(\S+\.rs):\d+:\d+: error|^---- (\S+\.rs) - ", re.M)
CHECK = ["cargo", "check", "--offline", "-q", "--message-format=short"]
WFBENCH = ["--manifest-path", "benchmark/wfbench/Cargo.toml"]


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def write(path, text):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def product_compiles(root):
    return all(subprocess.run(args, cwd=root, capture_output=True).returncode == 0
               for args in (CHECK + ["--workspace", "--lib", "--bins"], CHECK + WFBENCH + ["--bins"]))


def test_users(root, package):
    """The files whose compile fails in the all-targets checks and in
    `package`'s doctests, or None when they all pass."""
    runs = [CHECK + ["--keep-going", "--workspace", "--all-targets"],
            CHECK + ["--keep-going", "--all-targets"] + WFBENCH]
    if package:
        runs.append(["cargo", "test", "--offline", "-q", "--doc", "-p", package])
    users, failed = set(), False
    for args in runs:
        out = subprocess.run(args, cwd=root, capture_output=True, text=True)
        if out.returncode:
            failed = True
            base = os.path.join(root, "benchmark/wfbench" if WFBENCH[1] in args else "")
            for at in ERROR_AT.findall(out.stdout + out.stderr):
                users.add(os.path.relpath(os.path.join(base, at[0] or at[1]), root))
    return users if failed else None


def strip_reexport(text, module, name):
    """`text` with `name` dropped from every `pub use` whose path ends in
    `module::name` or groups it under `module::{..}`."""
    def edit(m):
        path = re.sub(r"\s+", "", m.group(1))
        if path.endswith(f"{module}::{name}"):
            return ""
        group = re.fullmatch(r"(.*::)\{(.*)\}", path)
        if not group or not group.group(1).endswith(f"{module}::"):
            return m.group(0)
        items = group.group(2).split(",")
        if name not in items:
            return m.group(0)
        kept = ", ".join(i for i in items if i and i != name)
        return m.group(0).replace(m.group(1), f"{group.group(1)}{{{kept}}}")
    return PUB_USE.sub(edit, text)


def probe(root, decl, sources):
    """'product', 'tests' or 'none': who still fails to compile once the
    function is private; for 'tests', also the files that use it."""
    path, name, offset, impl = decl
    text = read(os.path.join(root, path))
    edited = {path: text[:offset] + text[offset:].replace("pub ", "", 1)}
    crate = SRC.match(path).group(1)
    if impl < 0:  # a free function, which a `pub use` may re-export
        stem = os.path.splitext(os.path.basename(path))[0]
        module = os.path.basename(os.path.dirname(path)) if stem == "mod" else stem
        for other in sources[crate]:
            before = edited.get(other) or read(os.path.join(root, other))
            after = strip_reexport(before, module, name)
            if after != before:
                edited[other] = after
    original = {f: read(os.path.join(root, f)) for f in edited}
    try:
        for f, t in edited.items():
            write(os.path.join(root, f), t)
        if not product_compiles(root):
            return "product", None
        doctests = any(DOCTEST.search(read(os.path.join(root, f))) for f in sources[crate])
        manifest = read(os.path.join(root, "crates", crate, "Cargo.toml"))
        package = re.search(r'^name = "([^"]+)"', manifest, re.M).group(1)
        users = test_users(root, package if doctests else None)
        return ("none", None) if users is None else ("tests", users)
    finally:
        for f, t in original.items():
            write(os.path.join(root, f), t)


def main(only):
    files = [f for f in subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        check=True, capture_output=True, text=True).stdout.split("\0") if os.path.isfile(f)]
    sources = {}  # crate directory -> its src/*.rs files
    decls = []  # (file, name, offset, start of the enclosing impl or -1)
    for path in files:
        if not (SRC.match(path) and path.endswith(".rs")):
            continue
        sources.setdefault(SRC.match(path).group(1), []).append(path)
        if only and path not in only:
            continue
        text = read(path)
        cut = text.find("#[cfg(test)]")
        for m in DECL.finditer(text, 0, len(text) if cut < 0 else cut):
            impl = text.rfind("\nimpl", 0, m.start()) if m.group(1) else -1
            decls.append((path, m.group(2), m.start(), impl))

    root = tempfile.mkdtemp()
    verdict, users = {}, {}
    try:
        for f in files:
            os.makedirs(os.path.join(root, os.path.dirname(f)), exist_ok=True)
            shutil.copy2(f, os.path.join(root, f))
        os.environ["CARGO_TARGET_DIR"] = os.path.join(root, "target")
        os.environ["RUSTFLAGS"] = "--cap-lints=warn"
        if not product_compiles(root) or test_users(root, None) is not None:
            print("the tree does not compile as it stands", file=sys.stderr)
            return 2
        for d in sorted(decls, key=lambda d: d[1] == "is_empty"):
            if d[1] == "is_empty" and any(verdict[e] == "product" for e in decls
                                          if e[1] == "len" and e[::3] == d[::3]):
                verdict[d] = "exempt"  # clippy's len_without_is_empty asks for it
                continue
            verdict[d], users[d] = probe(root, d, sources)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    def line(d):
        return read(d[0]).count("\n", 0, d[2]) + 1

    unused = [d for d in decls if verdict[d] == "none"]
    for d in unused:
        print(f"{d[0]}: {d[1]}  (line {line(d)}: used by nothing outside its own module)")
    print(f"pass 1: {len(decls)} pub fn, {len(unused)} used by nothing outside their own module")

    allowed = {(f, n): test for (f, names), (test, _) in ALLOWLIST.items() for n in names
               if not only or f in only}
    unlisted = [d for d in decls if verdict[d] == "tests" and d[:2] not in allowed]
    for d in unlisted:
        print(f"{d[0]}: {d[1]}  (line {line(d)}: only tests use it: {', '.join(sorted(users[d]))};"
              " delete it or allowlist the test that needs it)")
    stale = []
    for (f, n), test in sorted(allowed.items()):
        probed = [d for d in decls if d[:2] == (f, n)]
        if not probed:
            stale.append(f"{f}: {n}  (allowlisted but no longer declared there)")
        elif all(verdict[d] in ("product", "exempt") for d in probed):
            stale.append(f"{f}: {n}  (allowlisted but now has a product caller)")
        elif not any(test in (users.get(d) or ()) for d in probed):
            stale.append(f"{f}: {n}  (allowlisted for {test}, which no longer uses it)")
    for entry in stale:
        print(entry)
    print(f"pass 2: {len(allowed)} allowlisted oracle/probe name(s), {len(unlisted)} unlisted, "
          f"{len(stale)} stale allowlist entr{'y' if len(stale) == 1 else 'ies'}")
    return 1 if unused or unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main(set(sys.argv[1:])))
