import math

import pytest

from invdisc import Point, StopReason, Trajectory, seed_stencil_from_function
from invdisc.cli import (RunConfig, main, read_trajectory_csv,
                         write_trajectory_csv)


def _traj(ys, scheme="test", h=0.5, stop=StopReason.COMPLETED):
    pts = tuple(Point(0.1 + h * k, y) for k, y in enumerate(ys))
    return Trajectory(pts, stop, scheme, h)


def _write_seed_csv(path, fn, x0, h, n):
    s = seed_stencil_from_function(fn, x0, h, n)
    write_trajectory_csv(path, Trajectory(s.points, StopReason.COMPLETED, "seed", h))
    return path


# --- CSV round trip -----------------------------------------------------------------

def test_csv_round_trip_bit_exact(tmp_path, rng):
    ys = list(rng.uniform(-10, 10, 20)) + [1 / 3, math.pi, 1e-17, -2.5e16]
    traj = _traj(ys, stop=StopReason.NO_REAL_ROOT)
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, traj)
    back = read_trajectory_csv(path)
    assert back.stop is StopReason.NO_REAL_ROOT
    assert back.scheme_id == "test"
    assert back.h_nominal == 0.5
    assert len(back.points) == len(traj.points)
    for a, b in zip(traj.points, back.points):
        assert a.x == b.x and a.y == b.y  # bit identical


def test_csv_rejects_malformed(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2\n")
    assert main(["chi", str(p), str(p)]) == 2


# --- solve ---------------------------------------------------------------------------

def test_solve_h5_from_seed_file_extends_past_pole(tmp_path):
    pole = 2.0 / (5.0 * math.pi)
    seed = _write_seed_csv(tmp_path / "seed.csv",
                           lambda x: math.tan(1.0 / x), 0.1, 0.001, 5)
    out = tmp_path / "out.csv"
    rc = main(["solve", "--scheme", "h5", "--forcing", "const", "--c", "0",
               "--h", "0.001", "--steps", "40", "--seed", str(seed),
               "--out", str(out)])
    assert rc == 0
    traj = read_trajectory_csv(out)
    assert traj.points[-1].x > pole
    assert all(math.isfinite(p.y) for p in traj.points)


def test_solve_is_deterministic(tmp_path):
    seed = _write_seed_csv(tmp_path / "seed.csv", math.atanh, -0.5, 0.01, 3)
    args = ["solve", "--scheme", "slx3", "--forcing", "const", "--c", "2",
            "--h", "0.01", "--steps", "20", "--seed", str(seed)]
    assert main(args + ["--out", str(tmp_path / "a.csv")]) == 0
    assert main(args + ["--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_solve_config_file_and_overrides(tmp_path):
    seed = _write_seed_csv(tmp_path / "seed.csv", math.atanh, -0.5, 0.01, 3)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"scheme = slx3\nforcing = const\nc = 2\nh = 0.01\n"
                   f"steps = 5\nseed = {seed}\nout = {tmp_path / 'c.csv'}\n")
    assert main(["solve", "--config", str(cfg)]) == 0
    traj = read_trajectory_csv(tmp_path / "c.csv")
    assert len(traj.points) == 8
    # flag overrides the file value
    assert main(["solve", "--config", str(cfg), "--steps", "7",
                 "--out", str(tmp_path / "d.csv")]) == 0
    assert len(read_trajectory_csv(tmp_path / "d.csv").points) == 10


def test_solve_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scheme = slx3\nwibble = 3\n")
    assert main(["solve", "--config", str(cfg)]) == 2


def test_config_round_trip(tmp_path):
    cfg = RunConfig(scheme="h5", forcing="const", c=0.0, h=0.001, steps=40,
                    seed="s.csv", out="o.csv")
    path = tmp_path / "round.cfg"
    cfg.to_file(path)
    back = RunConfig.from_file(path)
    assert back == cfg


def test_solve_validation_failures(tmp_path):
    seed = _write_seed_csv(tmp_path / "seed.csv", math.atanh, -0.5, 0.01, 3)
    # missing out
    assert main(["solve", "--scheme", "slx3", "--forcing", "const", "--c", "2",
                 "--h", "0.01", "--steps", "5", "--seed", str(seed)]) == 2
    # bad forcing for the scheme
    assert main(["solve", "--scheme", "h5", "--forcing", "y", "--h", "0.01",
                 "--steps", "5", "--seed", str(seed),
                 "--out", str(tmp_path / "x.csv")]) == 2
    # seed file shorter than the scheme arity
    assert main(["solve", "--scheme", "h5", "--forcing", "const", "--c", "0",
                 "--h", "0.01", "--steps", "5", "--seed", str(seed),
                 "--out", str(tmp_path / "x.csv")]) == 2
    # missing seed file -> I/O error
    assert main(["solve", "--scheme", "slx3", "--forcing", "const", "--c", "2",
                 "--h", "0.01", "--steps", "5", "--seed", str(tmp_path / "no.csv"),
                 "--out", str(tmp_path / "x.csv")]) == 3


# --- chi -----------------------------------------------------------------------------

def test_chi_identical_files(tmp_path, capsys):
    p = tmp_path / "a.csv"
    write_trajectory_csv(p, _traj([1.0, 2.0, 3.0]))
    assert main(["chi", str(p), str(p)]) == 0
    assert capsys.readouterr().out.strip() == "0.000000"


def test_chi_against_exact_id(tmp_path, capsys):
    traj = Trajectory(tuple(Point(x, math.atanh(x)) for x in (-0.5, 0.0, 0.5)),
                      StopReason.COMPLETED, "x", 0.5)
    p = tmp_path / "a.csv"
    write_trajectory_csv(p, traj)
    assert main(["chi", str(p), "arctanh"]) == 0
    assert float(capsys.readouterr().out.strip()) == 0.0


def test_chi_length_mismatch(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trajectory_csv(a, _traj([1.0, 2.0, 3.0]))
    write_trajectory_csv(b, _traj([1.0, 2.0]))
    assert main(["chi", str(a), str(b)]) == 2


# --- limit ---------------------------------------------------------------------------

def test_limit_command(capsys):
    assert main(["limit", "--invariant", "l3", "--function", "exp",
                 "--x0", "0", "--h0", "0.01", "--levels", "4"]) == 0
    out = capsys.readouterr().out
    order = float([l for l in out.splitlines() if "estimated order" in l][0].split(":")[1])
    assert order >= 0.8


def test_limit_rejects_unknown_function(capsys):
    assert main(["limit", "--invariant", "l3", "--function", "nope",
                 "--x0", "0"]) == 2


# --- example runs ----------------------------------------------------------------------

def test_example_4_summary_and_files(tmp_path, capsys):
    out = tmp_path / "ex4"
    assert main(["example", "4", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "exact discrete solution: yes" in text
    dev = float([l for l in text.splitlines()
                 if l.startswith("max deviation")][0].split(":")[1])
    assert dev <= 1e-9
    inv = read_trajectory_csv(out / "invariant.csv")
    assert len(inv.points) == 45
    assert (out / "baseline.csv").exists()
    assert (out / "summary.txt").exists()


def test_example_2_arctanh_chi(capsys):
    assert main(["example", "2-arctanh", "--h", "0.01"]) == 0
    text = capsys.readouterr().out
    value = float([l for l in text.splitlines() if "chi vs exact" in l][0].split(":")[1])
    assert value == pytest.approx(0.007028, rel=0.2)


def test_example_1_csv_contains_table_value(tmp_path):
    out = tmp_path / "ex1"
    assert main(["example", "1", "--h", "0.01", "--h-ref", "1e-4",
                 "--out", str(out)]) == 0
    traj = read_trajectory_csv(out / "invariant.csv")
    at_15 = [p.y for p in traj.points if abs(p.x - 1.5) < 1e-9]
    assert len(at_15) == 1
    assert at_15[0] == pytest.approx(0.451084, abs=5e-5)


def test_example_2_log_stops_at_barrier(capsys):
    assert main(["example", "2-log", "--h", "0.001"]) == 0
    text = capsys.readouterr().out
    assert "invariant stop: no-real-root" in text


def test_example_5_goes_beyond_pole(tmp_path, capsys):
    out = tmp_path / "ex5"
    assert main(["example", "5", "--steps", "40", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "beyond singularity: yes" in text
    assert "baseline stop: non-finite" in text


def test_example_3_runs(capsys):
    assert main(["example", "3", "--steps", "200", "--h-ref", "1e-4"]) == 0
    text = capsys.readouterr().out
    assert "baseline stop: non-finite" in text


def test_example_rejects_unknown_id():
    with pytest.raises(SystemExit) as exc:
        main(["example", "9"])
    assert exc.value.code == 2


@pytest.mark.parametrize("opts", [
    ["1", "--h-ref", "0"],
    ["1", "--h", "0"],
    ["2-log", "--x0", "inf"],
    ["4", "--steps", "0"],
    ["3", "--h", "0.5", "--h-ref", "1e-3"],  # the reference blows up before the seed
])
def test_example_rejects_out_of_range_options(opts):
    assert main(["example", *opts]) == 2


def test_example_1_run_past_the_reference(capsys):
    assert main(["example", "1", "--h", "0.5", "--h-ref", "1e-3", "--steps", "3"]) == 0
    text = capsys.readouterr().out
    line = [l for l in text.splitlines() if l.startswith("chi vs fine reference")][0]
    assert float(line.split(":")[1]) >= 0.0


def test_example_5_started_past_the_pole(capsys):
    assert main(["example", "5", "--x0", "0.2", "--steps", "5"]) == 0
    text = capsys.readouterr().out
    line = [l for l in text.splitlines() if l.startswith("chi vs exact before pole")][0]
    assert math.isnan(float(line.split(":")[1]))


# --- library arithmetic errors map to exit status 2 ---------------------------------------

def test_chi_non_finite_row(tmp_path):
    p = tmp_path / "nan.csv"
    p.write_text("x,y\n0,1\n1,nan\n")
    assert main(["chi", str(p), str(p)]) == 2


def test_chi_all_zero_reference(tmp_path):
    p = tmp_path / "zero.csv"
    write_trajectory_csv(p, _traj([0.0, 0.0, 0.0]))
    assert main(["chi", str(p), str(p)]) == 2
