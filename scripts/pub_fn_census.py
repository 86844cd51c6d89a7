#!/usr/bin/env python3
"""Reachability census of every `pub fn` of crates/*/src declared before a
file's first #[cfg(test)]. Two passes over one matcher, which decides where a
name counts as a use of a function:

  (a) comments and string/char literals are blanked, and `use` / `pub use`
      statements are ignored: a name in a `format!` string or an import line
      calls nothing;
  (b) a name counts only in call or path position -- `name(`, `.name(`,
      `name::<`, `::name`, or passed by name as a bare argument `(name,` --
      not wherever the identifier appears, so `let name = ..` and a field
      `.name` keep nothing alive; a bare argument counts only when the
      calling function has no parameter, `let`, `for` or closure binding of
      that name, so a local passed to a call keeps no same-named function
      alive;
  (c) mentions inside any file that itself declares a `pub fn` of that name
      are ignored: a function that only its own file calls should be private,
      and two same-named functions cannot keep each other alive.

The remaining blind spot is method homonyms across types and std: a `pub fn`
named `join`, `new` or `status` is kept alive by any other type's method of
that name called anywhere (`Path::join`, `Vec::new`, ..).

Pass 1, reachability: the name must be used by some tracked *.rs file other
than the declaring ones, outside the #[cfg(test)] tail of a crates/*/src file.

Pass 2, product census: the name must be used by product code -- non-test
lines of crates/*/src or benchmark/. A function only tests or examples use
is either deleted or listed in ALLOWLIST with the test file that uses it as
an oracle (the reference an optimised path is checked against) or a contract
probe (a read a test asserts a stated guarantee through). An entry fails when
its file no longer uses the function in test code, and when the function
gains a product caller or is gone (the entry is then stale).

Prints offenders as `file: name` with the reason, then one count line per
pass; exits 1 when either pass has offenders. Run from the repository root.
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
    ("crates/datacube/src/model.rs", ("same_buffer",)):
        ("crates/datacube/tests/proptest_zero_copy.rs",
         "probe: an identity chain shares, not copies, its payload"),
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
    ("crates/obs/src/bus.rs", ("subscribe",)):
        ("crates/par/tests/trace_propagation.rs",
         "probe: spans opened on pool workers reach a subscriber of the global bus"),
    ("crates/hpcwaas/src/api.rs", ("events",)):
        ("crates/hpcwaas/tests/serve.rs",
         "probe: coalesced submitters observe the one execution's record"),
    ("crates/tinyml/src/train.rs", ("grads",)):
        ("crates/tinyml/tests/train_equivalence.rs",
         "probe: the two-phase trainer's gradients, pinned bitwise to the cached-chain oracle"),
    ("crates/core/src/endtoend.rs", ("register_with_hpcwaas",)):
        ("tests/e2e_hpcwaas.rs",
         "probe: the workflow deployed and run through the Execution API end to end"),
}

SRC = re.compile(r"^crates/[^/]+/src/")
PRODUCT = re.compile(r"^(crates/[^/]+/src/|benchmark/)")
IDENT = r"([A-Za-z_][A-Za-z0-9_]*)"
DECL = re.compile(r"\bpub fn\s+" + IDENT)
FN_DECL = re.compile(r"\bfn\s+[A-Za-z_][A-Za-z0-9_]*")
USE = re.compile(r"^[ \t]*(?:pub(?:\s*\([^)]*\))?\s+)?use\s[^;]*;", re.M)
RAW_STR = re.compile(r'b?r(#*)"')
CALLED = re.compile(IDENT + r"\s*(?:\(|::\s*<)")
PATH = re.compile(r"::\s*" + IDENT)
PASSED = re.compile(r"(?<=[(,])\s*" + IDENT + r"\s*(?=[,)])")
FOR = re.compile(r"\bfor\s+(.+?)\s+in\b")
CLOSURE = re.compile(r"(?:[(,=]|\bmove)\s*\|([^|]*)\|")
LET = re.compile(r"\blet\s+((?:[^=;:]|::)+?)\s*(?::(?!:)[^=;]*)?(?:=(?![=>])|;)")


def blank(text):
    """`text` with every character but a newline turned into a space."""
    return re.sub(r"[^\n]", " ", text)


def strip_literals(text):
    """Blanks comments and string/char literals, keeping line structure."""
    out, i, n = [], 0, len(text)
    while i < n:
        c = text[i]
        raw = RAW_STR.match(text, i) if c in "br" else None
        if raw and i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_"):
            raw = None  # an identifier ending in `b`/`r`, not a literal prefix
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
        elif text.startswith("/*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                step = text[j:j + 2]
                depth += (step == "/*") - (step == "*/")
                j += 2 if step in ("/*", "*/") else 1
        elif raw:
            end = text.find('"' + raw.group(1), raw.end())
            j = n if end < 0 else end + 1 + len(raw.group(1))
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            j += 1
        elif c == "'" and (text[i + 1:i + 2] == "\\" or text[i + 2:i + 3] == "'"):
            j = text.find("'", i + 2) + 1  # a char literal; a lifetime has no closing quote
        else:
            out.append(c)
            i += 1
            continue
        out.append(blank(text[i:j]))
        i = j
    return "".join(out)


def closing(code, i):
    """Index just past the bracket that closes the one opening at `code[i]`."""
    depth = 0
    for j in range(i, len(code)):
        depth += (code[j] in "([{") - (code[j] in ")]}")
        if depth == 0:
            return j + 1
    return len(code)


def binders(patterns):
    """The lowercase identifiers a comma-separated list of patterns binds,
    each pattern's `: Type` annotation cut off."""
    names = set()
    for pattern in split_top(patterns):
        pattern = re.split(r"(?<!:):(?!:)", pattern, maxsplit=1)[0]
        names |= {n for n in re.findall(IDENT, pattern)
                  if n[0].islower() and n not in ("mut", "ref", "self")}
    return names


def fn_scopes(code):
    """`(start, end, locals)` per function body in stripped `code`: the names
    its parameters, its `let` statements, its `for` loops and its closures'
    parameters bind."""
    scopes = []
    for m in FN_DECL.finditer(code):
        params = params_start(code, m.end())
        if params is None:
            continue
        params_end = closing(code, params)
        brace = code.find("{", params_end)
        semi = code.find(";", params_end)
        if brace < 0 or 0 <= semi < brace:
            continue  # a declaration without a body
        end = closing(code, brace)
        names = binders(code[params + 1:params_end - 1])
        for binding in (LET, FOR, CLOSURE):
            for bound in binding.finditer(code, brace, end):
                names |= binders(bound.group(1))
        scopes.append((brace, end, names))
    return scopes


def params_start(code, i):
    """Index of the `(` opening the parameter list of a `fn` whose name ends
    at `i`, past any generics (whose bounds may hold `(`, `)` and `->`)."""
    while i < len(code) and code[i].isspace():
        i += 1
    if code.startswith("<", i):
        depth = 0
        while i < len(code):
            if code[i] == "<":
                depth += 1
            elif code[i] == ">" and code[i - 1] != "-":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        i += 1
        while i < len(code) and code[i].isspace():
            i += 1
    return i if code.startswith("(", i) else None


def split_top(params):
    """`params` split at the commas outside any bracket."""
    parts, depth, cur = [], 0, ""
    for c in params:
        depth += (c in "([{<") - (c in ")]}>")
        if c == "," and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += c
    return parts + [cur]


def used_names(code):
    """Names in call or path position in stripped `code`; declarations and
    bare arguments naming a local of the calling function excluded."""
    scopes = fn_scopes(code)
    code = FN_DECL.sub(lambda m: blank(m.group(0)), code)
    passed = set()
    for m in PASSED.finditer(code):
        inner = [names for start, end, names in scopes if start <= m.start(1) < end]
        # The innermost enclosing body is the last one that contains it.
        if not inner or m.group(1) not in inner[-1]:
            passed.add(m.group(1))
    return set(CALLED.findall(code)) | set(PATH.findall(code)) | passed


def main():
    files = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard", "*.rs"],
        check=True, capture_output=True, text=True).stdout.split()

    decls = []  # (file, name) of every pub fn before a crates/*/src file's test tail
    declared_in = {}  # name -> files that declare a pub fn of that name
    live, tail, product = {}, {}, {}  # name -> files using it outside / inside unit-test tails; product files
    test_words = {}  # file -> names its test code uses
    for path in files:
        try:
            raw = open(path, encoding="utf-8").read()
        except FileNotFoundError:  # deleted but not yet staged
            continue
        in_src = bool(SRC.match(path))
        cut = len(raw)
        if in_src:
            at = raw.find("#[cfg(test)]")
            cut = cut if at < 0 else raw.rfind("\n", 0, at) + 1
        code = USE.sub(lambda m: blank(m.group(0)), strip_literals(raw))
        body, test_tail = code[:cut], code[cut:]
        if in_src:
            decls += [(path, n) for n in DECL.findall(body)]
        for n in DECL.findall(code):
            declared_in.setdefault(n, set()).add(path)
        for n in used_names(body):
            live.setdefault(n, set()).add(path)
            if PRODUCT.match(path):
                product.setdefault(n, set()).add(path)
            else:
                test_words.setdefault(path, set()).add(n)
        for n in used_names(test_tail):
            tail.setdefault(n, set()).add(path)
            test_words.setdefault(path, set()).add(n)

    def used_by(where, n):
        return where.get(n, set()) - declared_in.get(n, set())

    offenders = [(f, n) for f, n in decls if not used_by(live, n)]
    for f, n in offenders:
        print(f"{f}: {n}  ({'unit tests only' if used_by(tail, n) else 'unreferenced'})")
    unref = sum(1 for _, n in offenders if not used_by(tail, n))
    print(f"pass 1: {len(decls)} pub fn, {unref} unreferenced, "
          f"{len(offenders) - unref} used only from #[cfg(test)] modules")

    allowed = {(f, n): test for (f, names), (test, _) in ALLOWLIST.items() for n in names}
    unlisted = [(f, n) for f, n in decls
                if used_by(live, n) and not used_by(product, n) and (f, n) not in allowed]
    bad_entries = []
    for (f, n), test in sorted(allowed.items()):
        if (f, n) not in decls:
            bad_entries.append(f"{f}: {n}  (allowlisted but no longer declared there)")
        elif used_by(product, n):
            bad_entries.append(f"{f}: {n}  (allowlisted but now has a product caller)")
        elif n not in test_words.get(test, ()):
            bad_entries.append(f"{f}: {n}  (allowlisted for {test}, whose tests no longer use it)")
    for f, n in unlisted:
        print(f"{f}: {n}  (no product caller: delete it or allowlist the test that needs it)")
    for line in bad_entries:
        print(line)
    print(f"pass 2: {len(allowed)} allowlisted oracle/probe name(s), {len(unlisted)} unlisted, "
          f"{len(bad_entries)} stale allowlist entr{'y' if len(bad_entries) == 1 else 'ies'}")
    return 1 if offenders or unlisted or bad_entries else 0


if __name__ == "__main__":
    sys.exit(main())
