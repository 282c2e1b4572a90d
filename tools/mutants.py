"""Refusal probe: which refusals of a module can be deleted with tier-1 still green.

    python tools/mutants.py src/syncgames/solution_group.py [more modules under src/ ...]

For each raise statement, and each statement that is a call of .require(...), in the
modules named, the probe puts pass in place of the whole statement in a temporary copy
of src/ and runs the tier-1 suite against that copy with -x.  A mutant survives when
the suite still passes: no test needs that refusal.  The survivors are printed as
path:line and the statement's first line; the exit status is 1 if any survive, 2 if
the unmutated copy already fails.  Uses the standard library only (and pytest, to run
the suite).
"""
from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def refusals(source: bytes) -> list:
    """(start, end) byte offsets into source of each raise or .require(...) statement,
    in source order."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    spans = []
    for node in ast.walk(ast.parse(source)):
        call = node.value if isinstance(node, ast.Expr) else None
        if isinstance(node, ast.Raise) or (
            isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr == "require"
        ):
            # ast's column offsets count UTF-8 bytes
            spans.append((starts[node.lineno - 1] + node.col_offset,
                          starts[node.end_lineno - 1] + node.end_col_offset))
    return sorted(spans)


def tier1_passes(src: Path) -> bool:
    """Whether tier-1 passes with -x against the package in src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def main(argv: list) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if not tier1_passes(src):
            print("tier-1 fails on the unmutated copy of src/", file=sys.stderr)
            return 2
        for name in argv:
            rel = Path(name).resolve().relative_to(ROOT / "src")
            target, source = src / rel, (ROOT / "src" / rel).read_bytes()
            spans = refusals(source)
            for k, (start, end) in enumerate(spans, start=1):
                line = source.count(b"\n", 0, start) + 1
                first = source[start:end].decode().splitlines()[0]
                target.write_bytes(source[:start] + b"pass" + source[end:])
                survived = tier1_passes(src)
                print(f"[{k}/{len(spans)}] {name}:{line}: {'SURVIVED' if survived else 'killed'}",
                      file=sys.stderr, flush=True)
                if survived:
                    survivors.append(f"{name}:{line}: {first}")
            target.write_bytes(source)
    for survivor in survivors:
        print(survivor)
    print(f"{len(survivors)} survivor(s)", file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
