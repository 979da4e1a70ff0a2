"""The experiment scripts run end to end and print their key lines."""
import json
import runpy
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from test_acceptance import TABLE2

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(name, capsys):
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_singularity_demo(capsys):
    out = _run("run_singularity_demo.py", capsys)
    assert "  from x0=-1: stop=no-real-root at x=-0.000100" in out[1]
    assert "  from x0=+1: stop=no-real-root at x=+0.000100" in out[2]
    assert any(l.startswith("  stop=completed, 45 points,") for l in out)
    beyond = [l for l in out if "real finite points beyond the pole" in l]
    assert len(beyond) == 1 and beyond[0].startswith("  invariant scheme: stop=completed, ")
    assert int(beyond[0].split(", ")[1].split()[0]) > 0
    assert any(l.startswith("  RK4 baseline (h=1e-5): stop=non-finite at ") for l in out)


def test_limit_probes(capsys):
    out = _run("run_limit_probes.py", capsys)
    rows = [l.split() for l in out[1:8]]
    assert [r[0] for r in rows] == ["l3", "l4", "l5", "m3", "m4", "m5", "h5"]
    # one error per refinement level, and every invariant converges
    assert [len(r) - 3 for r in rows] == [5, 5, 6, 5, 5, 6, 6]
    assert all(float(r[2]) > 0.5 for r in rows)


def test_tables_chi_within_published_band(capsys):
    """Table 2 as the script prints it stays inside criterion 2's factor-5
    band of the published chi, at every h and on the script's own shared
    reference."""
    out = _run("run_tables.py", capsys)
    start = out.index("deviation from the fine reference (chi)")
    rows = [l.split() for l in out[start + 1:start + 1 + len(TABLE2)]]
    chis = {float(r[0].removeprefix("h=")): float(r[-1]) for r in rows}
    assert chis.keys() == TABLE2.keys()
    for h, wanted in TABLE2.items():
        assert 1.0 / 5.0 <= chis[h] / wanted <= 5.0, (h, chis[h], wanted)


def test_ab_inprocess_loads_two_trees_side_by_side(tmp_path):
    """A/A: two copies of the working tree's package, loaded as two packages
    and timed in alternating rounds; no git, no timing bound."""
    ab = runpy.run_path(str(SCRIPTS / "ab_inprocess.py"))
    src = SCRIPTS.parent / "src" / "invdisc"
    setup = ("import invdisc\n"
             "from invdisc.limits import LimitProbe, probe_limit\n"
             "probe = LimitProbe('l3', invdisc.log_abs().jet_fn, 1.0, (0.01, 0.005, 0.0025, 0.00125))")
    before = sys.modules.get("invdisc")
    timers, names = [], []
    for side in ("a", "b"):
        tree = shutil.copytree(src, tmp_path / side / "invdisc")
        name = f"_ab_test_{side}"
        package = ab["load"](tree, name)
        assert package.__file__ == str(tree / "__init__.py")
        # every submodule, cli too, which __init__ does not import
        assert {f"{name}.{f.stem}" for f in tree.glob("*.py") if f.stem != "__init__"} \
            <= set(sys.modules)
        timers.append(ab["prepare"](package, setup, "probe_limit(probe)"))
        # setup's imports resolve to this copy, and sys.modules is put back
        assert timers[-1].inner.__globals__["probe_limit"].__module__ == f"{name}.limits"
        assert sys.modules.get("invdisc") is before
        names.append(name)
    result = ab["compare"](*timers, number=2, rounds=3, repeat=2)
    assert json.loads(json.dumps(result)) == result
    assert 0 <= result["head_won"] <= 3
    for side in ("base", "head"):
        s = result[side]
        assert 0.0 < s["q1"] <= s["median"] <= s["q3"]
    assert "ratio" not in result  # round_ratio is the one ratio
    # the median of the rounds' own ratios, from the per-round seconds returned
    rounds = result["per_round"]
    assert [len(rounds[side]) for side in ("base", "head")] == [3, 3]
    assert result["round_ratio"] == statistics.median(
        x / y for x, y in zip(rounds["base"], rounds["head"]))
    assert result["head_won"] == sum(y < x for x, y in zip(rounds["base"], rounds["head"]))
    for key in [k for k in sys.modules if k.split(".")[0] in names]:
        del sys.modules[key]


def test_cold_start_times_fresh_processes(tmp_path):
    """One round of every command and setting on a copy of the working tree:
    a row each in the table and the record, and no bytecode in the tree."""
    src = SCRIPTS.parent / "src"
    before = set(src.rglob("*.pyc"))
    record = tmp_path / "cold.json"
    done = subprocess.run([sys.executable, str(SCRIPTS / "cold_start.py"), "--repeat", "1",
                           "--json", str(record)], capture_output=True, text=True, timeout=60,
                          check=True)
    rows = json.loads(record.read_text())["rows"]
    assert [(r["tree"], r["command"], r["site"], r["pyc"]) for r in rows] == [
        ("working tree", command, site, pyc) for command in ("bare", "import invdisc", "example 4")
        for site, pyc in ((False, True), (True, True), (False, False), (True, False))]
    assert all(r["ms"] == [r["median_ms"]] and 0 < r["q1_ms"] == r["median_ms"] == r["q3_ms"]
               for r in rows)
    assert len(done.stdout.splitlines()) == 1 + len(rows)
    assert set(src.rglob("*.pyc")) == before
