"""Cold-start timing of the command line: fresh processes of a bare
interpreter, of ``import invdisc`` and of ``invdisc.cli example 4``.

    python scripts/cold_start.py [BASE] [--repeat N] [--json OUT]

Each command runs with and without ``site`` (``-S``), and with and without
bytecode.  Without it, ``PYTHONDONTWRITEBYTECODE=1`` is set and invdisc
compiles from source in every process, while the standard library reads its
installed ``.pyc``.  With it, every module reads a ``.pyc`` compiled by one
untimed run under a temporary ``PYTHONPYCACHEPREFIX``, never into the tree.
The package is timed from a copy of the working tree's ``src/invdisc``, and,
with BASE (a git commit), also from that commit's; each of the N rounds
(default 21) runs every tree and setting once, in turn.

Prints one row per tree, command and setting: the median and quartiles in
ms over the rounds, and with BASE the median over the base's.  With
``--json`` it also writes the record: the machine, the settings and every
process's milliseconds.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

from ab_inprocess import PACKAGE, ROOT, unpack

#: command name -> the interpreter's arguments
COMMANDS = {
    "bare": ["-c", "pass"],
    "import invdisc": ["-c", "import invdisc"],
    "example 4": ["-m", "invdisc.cli", "example", "4"],
}
#: (site, pyc) settings, in the order each round runs them
SETTINGS = [(False, True), (True, True), (False, False), (True, False)]


def machine() -> dict:
    """The interpreter and host the record was taken on, and the host's load
    averages (1, 5 and 15 minutes) as it ends."""
    info = {"python": sys.version.split()[0], "implementation": platform.python_implementation(),
            "platform": platform.platform(), "cpus": os.cpu_count(), "cpu": platform.processor(),
            "date": datetime.now(timezone.utc).isoformat(timespec="seconds")}
    try:
        with open("/proc/cpuinfo") as f:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in f
                               if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    if hasattr(os, "getloadavg"):
        info["loadavg"] = os.getloadavg()
    return info


def environment(src: Path, pyc: bool, prefix: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = str(src)
    if pyc:
        env["PYTHONPYCACHEPREFIX"] = str(prefix)
    else:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_once(args: list[str], env: dict) -> float:
    """Milliseconds of one fresh process; it must exit 0."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], env=env, check=True, stdout=subprocess.DEVNULL)
    return (time.perf_counter() - t0) * 1e3


def measure(trees: dict[str, Path], repeat: int, prefix: Path) -> list[dict]:
    cases = [(tree, name, site, pyc) for tree in trees for name in COMMANDS
             for site, pyc in SETTINGS]
    runs = {case: [] for case in cases}

    def args_env(tree, name, site, pyc):
        return [*([] if site else ["-S"]), *COMMANDS[name]], environment(trees[tree], pyc, prefix)

    for case in cases:  # fills the bytecode cache, untimed
        if case[3]:
            run_once(*args_env(*case))
    for _ in range(repeat):
        for case in cases:
            runs[case].append(run_once(*args_env(*case)))
    rows = []
    for (tree, name, site, pyc), ms in runs.items():
        q1, _, q3 = statistics.quantiles(ms, n=4) if len(ms) > 1 else ms * 3
        rows.append({"tree": tree, "command": name, "site": site, "pyc": pyc,
                     "median_ms": statistics.median(ms), "q1_ms": q1, "q3_ms": q3, "ms": ms})
    return rows


def table(rows: list[dict]) -> str:
    base = {(r["command"], r["site"], r["pyc"]): r["median_ms"] for r in rows
            if r["tree"] == rows[0]["tree"]}
    lines = [f"{'tree':<14} {'command':<15} {'site':<5} {'pyc':<5} "
             f"{'median':>8} {'q1':>8} {'q3':>8} {'ratio':>6}  (ms)"]
    for r in rows:
        ratio = r["median_ms"] / base[r["command"], r["site"], r["pyc"]]
        lines.append(f"{r['tree']:<14} {r['command']:<15} {'yes' if r['site'] else 'no':<5} "
                     f"{'yes' if r['pyc'] else 'no':<5} {r['median_ms']:8.1f} {r['q1_ms']:8.1f} "
                     f"{r['q3_ms']:8.1f} {ratio:6.2f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", nargs="?", help="git commit to time alongside the working tree")
    p.add_argument("--repeat", type=int, default=21, help="rounds (default 21)")
    p.add_argument("--json", help="write the record to this file")
    args = p.parse_args(argv)
    if args.repeat < 1:
        p.error("--repeat must be at least 1")
    with tempfile.TemporaryDirectory(prefix="cold_start_") as tmp:
        tmp = Path(tmp)
        trees = {}
        if args.base:
            trees[f"base {args.base}"] = unpack(args.base, tmp / "base").parent
        shutil.copytree(ROOT / "src" / PACKAGE, tmp / "head" / "src" / PACKAGE,
                        ignore=shutil.ignore_patterns("__pycache__"))
        trees["working tree"] = tmp / "head" / "src"
        rows = measure(trees, args.repeat, tmp / "pycache")
    print(table(rows))
    if args.json:
        record = {"what": __doc__.split("\n\n")[0], "machine": machine(),
                  "repeat": args.repeat, "commands": COMMANDS, "rows": rows}
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
