"""Paired A/B timing of one statement on two trees of invdisc, in one process.

    python scripts/ab_inprocess.py BASE --setup S --stmt T

BASE is a git commit.  Its ``src/invdisc`` (from ``git archive``) and the
working tree's are loaded side by side under two package names.  S runs once
per side with ``invdisc`` naming that side's package: ``import invdisc`` and
``from invdisc.limits import ...`` in S resolve to it.  A module outside the
package that S imports, such as ``bench/workloads.py``, must be dropped from
``sys.modules`` before S imports it, so that each side imports it anew.  T,
which should not import, is then timed in S's namespace.  Each of 40 rounds
takes, for both sides in shuffled order, the best of 5 runs of about 10 ms
each.

Prints one JSON line: each side's median and quartiles of the per-execution
seconds over the rounds, ``round_ratio``, the median over the rounds of
base / head within each round (above 1 means the working tree is faster),
the rounds the working tree won and each side's per-round seconds.  Pairs in
one process share the machine's state at that moment, so their ratio spreads
far less than that of two processes run one after the other; a change of the
machine's speed during the run moves each side's median, but ``round_ratio``
only by the rounds it spans.
"""
from __future__ import annotations

import argparse
import importlib.util
import io
import json
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "invdisc"
ROUNDS, REPEAT = 40, 5


def unpack(base: str, dest: Path) -> Path:
    """Extract ``src/invdisc`` at commit ``base`` under dest; its package dir."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", base,
                          f"src/{PACKAGE}"], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        # the "data" filter where this Python has it (3.10.12, 3.11.4 and later)
        t.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return dest / "src" / PACKAGE


def load(package_dir: Path, name: str):
    """Import the package in package_dir as ``name``, and every submodule
    under ``name.``, those that ``__init__`` does not import too (``cli``),
    so that S imports no module of either side outside the mapping."""
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for path in sorted(package_dir.glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"{name}.{path.stem}")
    return module


def prepare(package, setup: str, stmt: str) -> timeit.Timer:
    """A timer of stmt after setup, both seeing ``package`` as invdisc."""
    name = package.__name__
    loaded = {PACKAGE + key[len(name):]: mod for key, mod in list(sys.modules.items())
              if key == name or key.startswith(name + ".")}
    saved = {key: sys.modules.get(key) for key in loaded}
    sys.modules.update(loaded)
    namespace = {PACKAGE: package}
    try:
        exec(setup, namespace)
    finally:
        for key, mod in saved.items():
            if mod is None:
                del sys.modules[key]
            else:
                sys.modules[key] = mod
    return timeit.Timer(stmt, globals=namespace)


def calibrate(timer: timeit.Timer, target_s: float = 0.01) -> int:
    """Executions per run for about target_s seconds a run."""
    number, taken = timer.autorange()
    return max(1, round(number * target_s / taken))


def _summary(times: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return {"median": median, "q1": q1, "q3": q3}


def compare(base: timeit.Timer, head: timeit.Timer, number: int,
            rounds: int = ROUNDS, repeat: int = REPEAT) -> dict:
    """Alternate ``rounds`` rounds of best-of-``repeat`` runs of ``number``
    executions over both timers."""
    rng = random.Random(0)
    best = {"base": [], "head": []}
    timers = [("base", base), ("head", head)]
    for _ in range(rounds):
        rng.shuffle(timers)
        for side, timer in timers:
            best[side].append(min(timer.repeat(repeat, number)) / number)
    b, h = _summary(best["base"]), _summary(best["head"])
    pairs = list(zip(best["base"], best["head"]))
    return {"rounds": rounds, "repeat": repeat, "number": number,
            "base": b, "head": h, "round_ratio": statistics.median(x / y for x, y in pairs),
            "head_won": sum(y < x for x, y in pairs), "per_round": best}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git commit to compare the working tree with")
    parser.add_argument("--setup", default="pass")
    parser.add_argument("--stmt", required=True)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        base = prepare(load(unpack(args.base, Path(tmp)), "_ab_base"), args.setup, args.stmt)
        head = prepare(load(ROOT / "src" / PACKAGE, "_ab_head"), args.setup, args.stmt)
        result = compare(base, head, calibrate(head))
    print(json.dumps({"base_commit": args.base, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
