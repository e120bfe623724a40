"""Source mutants that tier-1 must kill: named single edits of ``src/boxparse``.

    python3 tests/mutants.py

Each mutant is a file, an exact old text and its new text. The old text
must occur exactly once in the file, so a refactor that moves it fails the
script rather than skipping the mutant. For each mutant the script copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory,
applies the edit there and runs tier-1 with ``-x -q``; a mutant that passes
every test survives. The unedited copy runs first and must pass, so that a
suite that fails anyway kills nothing by accident. A run that outlasts
``TIMEOUT_FACTOR`` times the unedited run, plus ``TIMEOUT_SLACK_S``, counts
as killed: a climb that never ends is caught, at the cost of the memory
its path list takes meanwhile (about 8 MB/s).

It prints one line per mutant, then "N of M mutants killed", and exits 1
if any mutant survives. A script, not a test module: pytest does not
collect it.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "-x"]
TIMEOUT_FACTOR, TIMEOUT_SLACK_S = 2, 10

EVALUATE, TREE = "src/boxparse/evaluate.py", "src/boxparse/tree.py"
MUTANTS = [
    ("climb without free-symbol moves", EVALUATE,
     "moves = [(g, None) for g in gold_by_sort.get(sort, ()) if g not in used]",
     "moves = []"),
    ("climb without exchange moves", EVALUATE,
     "moves += [(current[q], q) for q in pred_by_sort[sort] if q > p and current[q] != image]",
     "moves += []"),
    ("climb exchanges skip an _UNMAPPED image", EVALUATE,
     "if q > p and current[q] != image]",
     "if q > p and current[q] not in (image, _UNMAPPED)]"),
    ("climb leaves the partner's clause keys unmoved", EVALUATE,
     "moved[i] = moved.get(i, keys[i]) - w * d",
     "moved[i] = moved.get(i, keys[i])"),
    ("climb keeps the last of equal gains, and so zero gains", EVALUATE,
     "if gain > best_gain:",
     "if gain >= best_gain:"),
    ("_leaves without its leaf loop", TREE,
     """        for kid in kids:
            if kid.children:
                break
        else:
            return kids
""",
     "        return kids\n"),
    ("_leaves without its count test", TREE,
     "if len(kids) == want:",
     "if True:"),
]


def tier1(copy: str, timeout: float | None) -> tuple[bool | None, str]:
    """Run tier-1 in ``copy``. Returns whether it passed (None when it timed
    out) and the first failing test, or else pytest's last line."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
    try:
        run = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.M)
    last = run.stdout.strip().splitlines()[-1:] or ["no output"]
    return run.returncode == 0, failed.group(1) if failed else last[0]


def fresh_copy(parent: str, name: str) -> str:
    copy = os.path.join(parent, name)
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(copy, part), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), copy)
    return copy


def edited(path: str, old: str, new: str) -> str:
    """The text of ``path`` with its one ``old`` replaced by ``new``."""
    with open(os.path.join(ROOT, path)) as f:
        text = f.read()
    if text.count(old) != 1:
        raise SystemExit(f"{path}: the old text occurs {text.count(old)} times, not once:\n{old}")
    return text.replace(old, new)


def main() -> int:
    texts = [edited(path, old, new) for _name, path, old, new in MUTANTS]  # fail before any run
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        passed, detail = tier1(fresh_copy(tmp, "unedited"), None)
        if not passed:
            raise SystemExit(f"the unedited copy fails tier-1: {detail}")
        timeout = TIMEOUT_FACTOR * (time.perf_counter() - start) + TIMEOUT_SLACK_S
        killed = 0
        for k, ((name, path, _old, _new), text) in enumerate(zip(MUTANTS, texts)):
            copy = fresh_copy(tmp, f"mutant{k}")
            with open(os.path.join(copy, path), "w") as f:
                f.write(text)
            passed, detail = tier1(copy, timeout)
            killed += not passed
            print(f"{'survived' if passed else 'killed':8}  {name}: {detail}", flush=True)
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
