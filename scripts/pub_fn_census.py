#!/usr/bin/env python3
"""Reachability census: every `pub fn` of crates/*/src (crates/bench excluded)
declared before a file's first #[cfg(test)] must be named on some tracked *.rs
line that is neither a declaration of that name nor inside the #[cfg(test)]
tail of a crates/*/src file. Comments do not count.

Name-based on purpose: a homonym (`new`, `len`, a same-named method of another
type) keeps a function alive. The gate is cheap and has no false alarms; it
catches the function whose name nothing else in the tree says.

Prints offenders as `file: name` (tagged with who, if anyone, still names
them), then one count line; exits 1 when there are offenders.
"""
import re
import subprocess
import sys

SRC = re.compile(r"^crates/[^/]+/src/")
DECL = re.compile(r"\bpub fn\s+([A-Za-z_][A-Za-z0-9_]*)")
FN = re.compile(r"\bfn\s+([A-Za-z_][A-Za-z0-9_]*)")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

files = subprocess.run(
    ["git", "ls-files", "--cached", "--others", "--exclude-standard", "*.rs"],
    check=True, capture_output=True, text=True).stdout.split()

decls = []  # (file, name)
live, tail = set(), set()  # names said outside / inside unit-test tails
for path in files:
    try:
        lines = open(path, encoding="utf-8").read().splitlines()
    except FileNotFoundError:  # deleted but not yet staged
        continue
    in_src = bool(SRC.match(path))
    census = in_src and not path.startswith("crates/bench/")
    in_tail = False
    for line in lines:
        in_tail = in_tail or (in_src and "#[cfg(test)]" in line)
        code = line.split("//", 1)[0]
        if census and not in_tail:
            decls += [(path, n) for n in DECL.findall(code)]
        (tail if in_tail else live).update(set(WORD.findall(code)) - set(FN.findall(code)))

offenders = [(f, n) for f, n in decls if n not in live]
for f, n in offenders:
    print(f"{f}: {n}  ({'unit tests only' if n in tail else 'unreferenced'})")
unref = sum(1 for _, n in offenders if n not in tail)
print(f"{len(decls)} pub fn, {unref} unreferenced, "
      f"{len(offenders) - unref} named only from #[cfg(test)] modules")
sys.exit(1 if offenders else 0)
