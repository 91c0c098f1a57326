"""The checks are checked: each mutant in mutants.json must fail its tests.

    python tests/mutants.py

An entry of mutants.json names a deliberate defect: a `file` (relative to
the repository root), an `old` text that must appear in it exactly once,
the `new` text that replaces it, and the `tests` (pytest node ids) that
must catch it. For every entry, this copies src/, tests/ and
pyproject.toml into a temporary directory, applies the edit there, and
runs the entry's tests with `-x`; pyproject's `pythonpath` puts the
copy's src/ first, so the mutated code is the one imported and the
checkout is never edited. A mutant is killed when pytest reports a
failed test (exit code 1). The run fails, exit 1, if any mutant survives,
or if an old text is missing or repeated. First, every named test is run
once on the unmutated tree and must pass there: a test that already
fails, or does not exist, would otherwise kill a mutant it never caught.
pytest does not collect this file: its name does not start with `test_`.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "tests", "mutants.json")


def _copy_tree(dest: str) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name), ignore=skip)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def _pytest(cwd: str, *args: str) -> subprocess.CompletedProcess:
    # the copy's src/ alone, not a PYTHONPATH pointing into the checkout
    env = {**os.environ, "PYTHONPATH": os.path.join(cwd, "src")}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *args], cwd=cwd, env=env, capture_output=True, text=True)


def _apply(root: str, mutant: dict) -> str | None:
    """Make the mutant's edit in the tree at `root`; the reason it cannot be
    made when its old text does not appear exactly once."""
    path = os.path.join(root, mutant["file"])
    with open(path) as fh:
        text = fh.read()
    count = text.count(mutant["old"])
    if count != 1:
        return f"old text appears {count} times in {mutant['file']}"
    with open(path, "w") as fh:
        fh.write(text.replace(mutant["old"], mutant["new"]))
    return None


def main() -> int:
    with open(CORPUS) as fh:
        corpus = json.load(fh)
    failures = []
    with tempfile.TemporaryDirectory(prefix="sgldlab-mutants-") as tmp:
        clean = os.path.join(tmp, "clean")
        _copy_tree(clean)
        ids = sorted({test for m in corpus for test in m["tests"]})
        done = _pytest(clean, *ids)
        if done.returncode != 0:
            print(done.stdout[-4000:] + done.stderr[-4000:], file=sys.stderr)
            print(f"the named tests do not all pass on the unmutated tree "
                  f"(pytest exit {done.returncode})", file=sys.stderr)
            return 1
        for i, mutant in enumerate(corpus):
            start = time.monotonic()
            work = os.path.join(tmp, f"m{i}")
            _copy_tree(work)
            why = _apply(work, mutant)
            if why is None:
                done = _pytest(work, "-x", *mutant["tests"])
                if done.returncode != 1:
                    why = (f"survived (pytest exit {done.returncode})" if done.returncode == 0
                           else f"pytest exit {done.returncode}, not a failed test:\n"
                                f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
            print(f"{mutant['name']}: {'killed' if why is None else why} "
                  f"({time.monotonic() - start:.1f} s)", flush=True)
            if why is not None:
                failures.append(mutant["name"])
            shutil.rmtree(work)
    print(f"{len(corpus) - len(failures)} of {len(corpus)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
