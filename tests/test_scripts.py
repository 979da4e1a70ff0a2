"""The experiment scripts run end to end and print their key lines."""
import runpy
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
