import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from invdisc import (Constant, FunctionOfX, IdentityInY, SchemeKind, SchemeSpec, Stencil,
                     StopReason, Trajectory, Uniform, integrate, one_over_one_minus_exp,
                     seed_stencil_from_function)
from invdisc import cli
from invdisc.cli import (MAX_STEPS, main, read_trajectory_csv, run_example,
                         write_trajectory_csv)

from conftest import csv_reference_reader, scheme_reference_loop


def _traj(ys, scheme="test", h=0.5, stop=StopReason.COMPLETED):
    xs = tuple(0.1 + h * k for k in range(len(ys)))
    return Trajectory(xs, tuple(ys), stop, scheme, h)


def _write_seed_csv(path, fn, x0, h, n):
    s = seed_stencil_from_function(fn, x0, h, n)
    write_trajectory_csv(path, Trajectory(s.xs, s.ys, StopReason.COMPLETED, "seed", h))
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


def test_csv_reader_skips_padding_blanks_and_late_metadata(tmp_path):
    # str.strip() drops U+001F and float() does not: such a row still reads
    p = tmp_path / "padded.csv"
    p.write_text("x,y\n0,1\x1f\n \t0.5 , 2 \n\n  # h: 0.5\n")
    traj = read_trajectory_csv(p)
    assert traj.xs == (0.0, 0.5) and traj.ys == (1.0, 2.0) and traj.h_nominal == 0.5


def test_csv_rejects_malformed(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2\n")
    assert main(["chi", str(p), str(p)]) == 2
    # a stop reason that is not one names the file and the key
    q = tmp_path / "stop.csv"
    q.write_text("# stop: user-limit\nx,y\n0,1\n1,2\n")
    capsys.readouterr()
    assert main(["chi", str(q), str(q)]) == 2
    err = capsys.readouterr().err
    assert str(q) in err and "stop" in err
    # a bad '# h:' value and a row that is not two numbers name the file and line
    for text, where in (("x,y\n0,1\n# h: abc\n1,2\n", ":3:"),
                        ("# h: 0.5\nx,y\n0,1\n1,abc\n", ":4:"),
                        ("x,y\n0,1,2\n", ":2:")):
        q.write_text(text)
        assert main(["chi", str(q), str(q)]) == 2
        assert f"{q}{where}" in capsys.readouterr().err


# --- solve ---------------------------------------------------------------------------

def test_solve_h5_from_seed_file_extends_past_pole(tmp_path):
    pole = 2.0 / (5.0 * math.pi)
    seed = _write_seed_csv(tmp_path / "seed.csv",
                           lambda x: math.tan(1.0 / x), 0.1, 0.001, 5)
    out = tmp_path / "out.csv"
    rc = main(["solve", "--scheme", "h5", "--forcing", "0",
               "--steps", "40", "--seed", str(seed), "--out", str(out)])
    assert rc == 0
    traj = read_trajectory_csv(out)
    assert traj.points[-1].x > pole
    assert all(math.isfinite(p.y) for p in traj.points)


def test_solve_is_deterministic(tmp_path):
    seed = _write_seed_csv(tmp_path / "seed.csv", math.atanh, -0.5, 0.01, 3)
    args = ["solve", "--scheme", "slx3", "--forcing", "2",
            "--steps", "20", "--seed", str(seed)]
    assert main(args + ["--out", str(tmp_path / "a.csv")]) == 0
    assert main(args + ["--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_solve_requires_its_flags_and_reads_no_config_file(tmp_path, capsys):
    seed = _write_seed_csv(tmp_path / "seed.csv", math.atanh, -0.5, 0.01, 3)
    flags = {"--scheme": "slx3", "--steps": "5", "--seed": str(seed),
             "--out": str(tmp_path / "x.csv")}
    # each missing flag is named by argparse, which exits 2 before any run
    for missing in flags:
        with pytest.raises(SystemExit) as exc:
            main(["solve"] + [f"{k}={v}" for k, v in flags.items() if k != missing])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: the following arguments are required: {missing}\n")
    assert not (tmp_path / "x.csv").exists()
    # a file of key = value lines is no way to give them
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k[2:]} = {v}\n" for k, v in flags.items()))
    for extra, err in (([], "the following arguments are required: --scheme, "
                            "--steps, --seed, --out\n"),
                       ([f"{k}={v}" for k, v in flags.items()],
                        f"unrecognized arguments: --config {cfg}\n")):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", str(cfg), *extra])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {err}")
    assert not (tmp_path / "x.csv").exists()


def test_solve_command_line_of_readme(tmp_path, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("`solve` takes every setting but its step", 1)[1]
    argv = section.split("```sh\n", 1)[1].split("\n", 1)[0].split()
    assert argv[:2] == ["invdisc", "solve"]
    monkeypatch.chdir(tmp_path)
    _write_seed_csv(tmp_path / "seed.csv", one_over_one_minus_exp().eval_fn, 1.0, 0.01, 3)
    assert main(argv[1:]) == 0
    traj = read_trajectory_csv(tmp_path / "traj.csv")
    assert (len(traj), traj.stop) == (53, StopReason.COMPLETED)


def test_solve_y_mean_is_the_stencil_mean_forcing(tmp_path):
    seed_path = _write_seed_csv(tmp_path / "seed.csv", lambda x: 10.0 - x - 5.0 * x * x,
                                0.0, 1e-3, 3)
    runs = {}
    for forcing in ("y", "y-mean"):
        out = tmp_path / f"{forcing}.csv"
        assert main(["solve", "--scheme", "slx3", "--forcing", forcing, "--steps", "300",
                     "--seed", str(seed_path), "--out", str(out)]) == 0
        runs[forcing] = read_trajectory_csv(out)
    seed = seed_stencil_from_function(lambda x: 10.0 - x - 5.0 * x * x, 0.0, 1e-3, 3)
    spec = SchemeSpec(SchemeKind.SLX3, IdentityInY(stencil_mean=True), Uniform(1e-3))
    want = integrate(spec, seed, 300)
    got = runs["y-mean"]
    assert (got.xs, got.ys, got.stop) == (want.xs, want.ys, want.stop)
    assert runs["y"].ys != got.ys


def test_solve_validation_failures(tmp_path, capsys):
    seed = _write_seed_csv(tmp_path / "seed.csv", math.atanh, -0.5, 0.01, 3)
    # missing out: argparse names the flag and exits 2
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--scheme", "slx3", "--forcing", "2", "--steps", "5", "--seed", str(seed)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: the following arguments are required: --out\n")
    # bad forcing for the scheme: SchemeSpec refuses it and names what the
    # scheme takes, and solve names the forcing as it was typed
    wide = _write_seed_csv(tmp_path / "wide.csv", math.atanh, -0.5, 0.01, 5)
    takes = {"sly4": "Constant or FunctionOfX", "slx3": "Constant or IdentityInY",
             "h5": "Constant"}
    for forcing in ("y", "y-mean", "cos", "sin"):
        term = "FunctionOfX" if forcing in ("cos", "sin") else "IdentityInY"
        for scheme in ("sly4", "h5") if term == "IdentityInY" else ("slx3", "h5"):
            assert main(["solve", "--scheme", scheme, "--forcing", forcing,
                         "--steps", "5", "--seed", str(wide),
                         "--out", str(tmp_path / "x.csv")]) == 2
            assert capsys.readouterr().err == (f"error: --forcing {forcing}: {scheme} takes "
                                               f"{takes[scheme]} forcings, not {term}\n")
            assert not (tmp_path / "x.csv").exists()
    # seed file shorter than the scheme arity
    assert main(["solve", "--scheme", "h5", "--forcing", "0",
                 "--steps", "5", "--seed", str(seed),
                 "--out", str(tmp_path / "x.csv")]) == 2
    # a forcing that is neither a name nor a finite number, or the --c flag
    # and the const and zero names that --forcing replaced: argparse exits 2
    for bad, err in [*((["--forcing=" + v], f"argument --forcing: {v!r} is neither a finite "
                                           "number nor one of y, y-mean, cos, sin")
                       for v in ("nan", "inf", "-inf", "1e999", "const", "zero", "tan")),
                     (["--c", "2"], "unrecognized arguments: --c 2")]:
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--scheme", "slx3", *bad, "--steps", "5", "--seed", str(seed),
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {err}\n")
        assert not (tmp_path / "x.csv").exists()
    # a seed whose '# h:' line is not a finite nonzero step (the file and the
    # line named), whose '# h:' line its rows do not fit, or, without one,
    # whose first spacing is 0 (Uniform's message)
    rows = "x,y\n0,1\n0.01,2\n0.02,3\n"
    bad = tmp_path / "bad-h.csv"
    cases = [(f"# h: {v}\n{rows}", f"{bad}:1: '# h:' value {v!r} is not a finite nonzero step")
             for v in ("0", "-0", "nan", "inf", "-inf")]
    cases += [(f"# h: 0.02\n{rows}", "seed abscissae inconsistent with the uniform lattice rule"),
              ("x,y\n0,1\n0,2\n0.02,3\n", "uniform lattice needs a nonzero step")]
    for text, message in cases:
        bad.write_text(text)
        assert main(["solve", "--scheme", "slx3", "--forcing", "2",
                     "--steps", "5", "--seed", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x.csv").exists()
    # missing seed file -> I/O error
    assert main(["solve", "--scheme", "slx3", "--forcing", "2",
                 "--steps", "5", "--seed", str(tmp_path / "no.csv"),
                 "--out", str(tmp_path / "x.csv")]) == 3


def test_solve_default_forcing_is_the_constant_zero(tmp_path):
    # every scheme's default; for sly4 it is the zero forcing that the
    # deleted name 'zero' spelled as a function of x
    seed = _write_seed_csv(tmp_path / "seed.csv", math.tan, 1.0, 0.01, 5)
    for scheme in SchemeKind:
        outs = [tmp_path / f"{scheme.value}-{k}.csv" for k in range(2)]
        for forcing, out in zip(([], ["--forcing", "0"]), outs):
            assert main(["solve", "--scheme", scheme.value, *forcing, "--steps", "110",
                         "--seed", str(seed), "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


def test_solve_continues_example_1_bit_for_bit(tmp_path):
    # the step is the '# h: 0.01' line of example 1's invariant.csv
    ex1 = tmp_path / "ex1" / "invariant.csv"
    assert main(["example", "1", "--out", str(ex1.parent)]) == 0
    out = tmp_path / "out.csv"
    assert main(["solve", "--scheme", "sly4", "--forcing", "cos", "--steps", "100",
                 "--seed", str(ex1), "--out", str(out)]) == 0
    seed = read_trajectory_csv(ex1)
    want = integrate(SchemeSpec(SchemeKind.SLY4, FunctionOfX(math.cos), Uniform(0.01)),
                     Stencil(seed.xs[:4], seed.ys[:4]), 100)
    got = read_trajectory_csv(out)
    assert (got.xs, got.ys, got.stop, got.h_nominal) == (want.xs, want.ys, want.stop, 0.01)


def test_solve_without_an_h_line_steps_on_the_first_spacing(tmp_path):
    # a plain x,y seed, whose first spacing is 0.010000000000000009
    xs = (0.3, 0.31, 0.32)
    seed = tmp_path / "seed.csv"
    seed.write_text("x,y\n" + "".join(f"{x!r},{math.atanh(x)!r}\n" for x in xs))
    out = tmp_path / "out.csv"
    assert main(["solve", "--scheme", "slx3", "--forcing", "2", "--steps", "5",
                 "--seed", str(seed), "--out", str(out)]) == 0
    h = xs[1] - xs[0]
    want = integrate(SchemeSpec(SchemeKind.SLX3, Constant(2.0), Uniform(h)),
                     Stencil(xs, map(math.atanh, xs)), 5)
    got = read_trajectory_csv(out)
    assert (got.xs, got.ys, got.stop, got.h_nominal) == (want.xs, want.ys, want.stop, h)
    assert h != 0.01 and got.xs[-1] == xs[0] + 7 * h


def test_no_flag_is_taken_by_a_prefix_of_its_name(tmp_path, capsys):
    # with prefixes taken, a stale `solve --h` would match --help, print the
    # usage and exit 0 without a run: each command line below exits 2
    seed = _write_seed_csv(tmp_path / "seed.csv", math.atanh, -0.5, 0.01, 3)
    out = tmp_path / "x.csv"
    solve = ["solve", "--scheme", "slx3", "--seed", str(seed), "--out", str(out)]
    for argv, err in (
            ([*solve, "--steps", "4", "--h", "0.1"], "unrecognized arguments: --h 0.1"),
            ([*solve, "--steps", "4", "--forc", "y"], "unrecognized arguments: --forc y"),
            ([*solve, "--ste", "4"], "the following arguments are required: --steps"),
            (["example", "4", "--ste", "40"], "unrecognized arguments: --ste 40"),
            (["chi", str(seed), str(seed), "--he"], "unrecognized arguments: --he"),
            (["limit", "--invariant", "l3", "--function", "exp", "--x0", "0", "--lev", "4"],
             "unrecognized arguments: --lev 4")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out_text, err_text = capsys.readouterr()
        assert out_text == "" and err_text.endswith(f"error: {err}\n")
    assert not out.exists()

# --- chi -----------------------------------------------------------------------------

def test_chi_identical_files(tmp_path, capsys):
    p = tmp_path / "a.csv"
    write_trajectory_csv(p, _traj([1.0, 2.0, 3.0]))
    assert main(["chi", str(p), str(p)]) == 0
    assert capsys.readouterr().out.strip() == "0.000000"


def test_chi_against_exact_id(tmp_path, capsys):
    # exp too: limit --function's test functions are exact-solution ids
    xs = (-0.5, 0.0, 0.5)
    for name, fn in (("arctanh", math.atanh), ("exp", math.exp)):
        traj = Trajectory(xs, tuple(map(fn, xs)), StopReason.COMPLETED, "x", 0.5)
        p = tmp_path / f"{name}.csv"
        write_trajectory_csv(p, traj)
        assert main(["chi", str(p), name]) == 0
        assert capsys.readouterr().out == "0.000000\n"


@pytest.mark.parametrize("other", [
    _traj([1.0, 2.0]),
    Trajectory((5.0, 6.0, 7.0), (1.0, 2.0, 3.0), StopReason.COMPLETED, "test", 1.0),
], ids=["length", "abscissa"])
def test_chi_mismatch(tmp_path, other):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trajectory_csv(a, Trajectory((0.0, 0.1, 0.2), (1.0, 2.0, 3.0),
                                       StopReason.COMPLETED, "test", 0.1))
    write_trajectory_csv(b, other)
    assert main(["chi", str(a), str(b)]) == 2


def test_chi_against_exact_skips_singular_abscissae(tmp_path, capsys):
    # example 4's lattice lands on the pole at x = 0; the summary leaves it out
    out = tmp_path / "ex4"
    assert main(["example", "4", "--out", str(out)]) == 0
    summary = [l for l in capsys.readouterr().out.splitlines()
               if l.startswith("chi vs exact: ")]
    assert main(["chi", str(out / "invariant.csv"), "one-over-one-minus-exp"]) == 0
    value, err = capsys.readouterr()
    assert summary == [f"chi vs exact: {value.strip()}"]
    assert "1 of 45 points left out" in err
    # no point left: exit 2
    p = tmp_path / "pole.csv"
    write_trajectory_csv(p, Trajectory((0.0, 1e-17), (1.0, 2.0), StopReason.COMPLETED, "x", 1.0))
    assert main(["chi", str(p), "one-over-one-minus-exp"]) == 2


def test_chi_on_common_prefix(tmp_path, capsys):
    # a run that stopped early against its full-length baseline
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trajectory_csv(a, _traj([1.0, 2.0]))
    write_trajectory_csv(b, _traj([1.0, 2.0, 3.0]))
    assert main(["chi", str(a), str(b)]) == 0
    out, err = capsys.readouterr()
    assert float(out.strip()) == 0.0
    assert "2 vs 3" in err


# --- limit ---------------------------------------------------------------------------

def test_limit_command(capsys):
    assert main(["limit", "--invariant", "l3", "--function", "exp",
                 "--x0", "0", "--h0", "0.01", "--levels", "4"]) == 0
    out = capsys.readouterr().out
    order = float([l for l in out.splitlines() if "estimated order" in l][0].split(":")[1])
    assert order >= 0.8


def test_limit_rejects_unknown_function(capsys):
    # the test functions are argparse choices
    with pytest.raises(SystemExit) as exc:
        main(["limit", "--invariant", "l3", "--function", "nope", "--x0", "0"])
    assert exc.value.code == 2
    assert "error: argument --function: invalid choice: 'nope'" in capsys.readouterr().err


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


@pytest.mark.parametrize("size", [["--steps", "1000"], ["--h", "1e-3", "--steps", "300"],
                                  ["--h", "0.02", "--steps", "3000"],
                                  ["--h", "0.002", "--steps", "3000"],
                                  ["--x0", "-40"]], ids=" ".join)
def test_example_4_summarizes_a_degenerate_stop(tmp_path, capsys, size):
    # the run stops on a window whose last two ordinates repeat, which has no
    # cross-ratio: the summary takes its deviation over the windows that have
    # one, and reads nan where none has (at x0 = -40 every seed ordinate is 1.0)
    out = tmp_path / "ex4"
    assert main(["example", "4", *size, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "invariant stop: degenerate-coefficient" in text.splitlines()
    assert (out / "summary.txt").read_text().splitlines() == text.splitlines()


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


@pytest.mark.parametrize("command", [["example", "2-log", "--x0", "1", "--h"],
                                     ["solve", "--scheme", "slx3", "--steps", "5",
                                      "--forcing"]])
def test_negative_value_in_exponent_form_needs_the_equals_form(command, capsys):
    # argparse takes "-1e-4" for an option: its negative-number pattern has no
    # exponent, so the value is written --h=-1e-4 or --forcing=-1e-4
    with pytest.raises(SystemExit) as exc:
        main([*command, "-1e-4"])
    assert exc.value.code == 2
    assert f"argument {command[-1]}: expected one argument" in capsys.readouterr().err


def test_example_2_log_backward_stops_at_barrier(capsys):
    # the singularity demo's backward run from x = 1 to the barrier near 0
    assert main(["example", "2-log", "--x0", "1", "--h=-1e-4"]) == 0
    summary = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert summary["invariant stop"] == "no-real-root"
    assert 0.0 < float(summary["invariant last x"]) <= 0.01


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
    ["4", "--x0", "1000"],  # the exact solution's jet overflows
    ["5", "--x0", "1e-310", "--steps", "5"],  # the jet of tan(1/x) divides by zero
])
def test_example_rejects_out_of_range_options(opts):
    assert main(["example", *opts]) == 2


@pytest.mark.parametrize("opts, err", [
    (["1", "--h=-0.01"], "example 1's default step count at h = -0.01, x0 = 1.0 is -153"),
    (["2-log", "--x0", "0"], "example 2-log's default step count at h = 0.0001, x0 = 0.0 is 0"),
    (["3", "--h", "1e-7"], "example 3's default step count at h = 1e-07, x0 = 0.0 is 3000000"),
])
def test_example_default_step_count_out_of_range_is_named(opts, err, capsys):
    assert main(["example", *opts]) == 2
    assert capsys.readouterr().err == f"error: {err}, not from 1 to {MAX_STEPS}\n"
    # an explicit count out of range keeps its own message
    assert main(["example", opts[0], "--steps", "0"]) == 2
    assert capsys.readouterr().err == f"error: steps must be an integer from 1 to {MAX_STEPS}\n"


@pytest.mark.parametrize("argv", [
    ["example", "1", "--steps", str(MAX_STEPS + 1)],
    ["example", "2-log", "--h", "1e-9"],  # a default step count of 1.05e9
    ["example", "1", "--h-ref", "1e-8"],  # a 1.5e8-step reference
    ["example", "3", "--h-ref", "1e-12"],  # seed strides of 1e9 reference steps
    ["example", "5", "--x0", "-1000"],  # a 2e8-step baseline to past the pole
    ["solve", "--scheme", "slx3", "--forcing", "2", "--steps", str(MAX_STEPS + 1)],
    # a strictly decreasing ladder, so only the size bound refuses it
    ["limit", "--invariant", "l3", "--function", "exp", "--x0", "0",
     "--ratio", "0.99999", "--levels", str(MAX_STEPS + 1)],
])
def test_oversized_runs_rejected_before_integrating(argv, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an integration started")

    monkeypatch.setattr(cli, "integrate", refuse)
    monkeypatch.setattr(cli, "rk4_integrate", refuse)
    monkeypatch.setattr(cli, "rk4_schwarzian_rate", refuse)
    monkeypatch.setattr(cli, "probe_limit", refuse)
    if argv[0] == "solve":
        seed = _write_seed_csv(tmp_path / "seed.csv", math.atanh, -0.5, 0.01, 3)
        argv = argv + ["--seed", str(seed), "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 2


@pytest.mark.parametrize("argv, what, count", [
    (["3", "--h-ref", "1e-300"], "reference", "2.000000e+297"),
    # past the float range, where an int's :.7g raises OverflowError
    (["3", "--h", "1.7", "--steps", "10", "--h-ref", "1e-308"], "reference", "3.400000e+308"),
    (["2-arctanh", "--steps", str(MAX_STEPS)], "baseline", "1000002"),
], ids=["e297", "e308", "exact"])
def test_oversized_run_count_is_short(argv, what, count, capsys):
    # seven significant digits, exact up to 9 999 999
    assert main(["example", *argv]) == 2
    assert (capsys.readouterr().err
            == f"error: the {what} run would take {count} steps, more than {MAX_STEPS}\n")

@pytest.mark.parametrize("example_id", list(cli.EXAMPLES))
def test_example_baselines_bounded_by_max_steps(example_id, monkeypatch):
    """With MAX_STEPS scheme steps the lattice, and so the baseline, needs
    more; example 5's baseline runs at 1e-5 to past the pole."""
    def refuse(*args, **kwargs):
        raise AssertionError("an integration started")

    monkeypatch.setattr(cli, "MAX_STEPS", 40)
    monkeypatch.setattr(cli, "integrate", refuse)
    monkeypatch.setattr(cli, "rk4_integrate", refuse)
    monkeypatch.setattr(cli, "rk4_schwarzian_rate", refuse)
    assert main(["example", example_id, "--steps", "40"]) == 2


def test_example_h_ref_help_names_each_default(capsys):
    with pytest.raises(SystemExit):
        main(["example", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    seeded = {k: ex for k, ex in cli.EXAMPLES.items() if ex.solution is None}
    assert seeded.keys() == {"1", "3"}
    for k, ex in seeded.items():
        assert f"{ex.h_ref:g} for example {k}" in text


def test_example_1_run_past_the_reference(capsys):
    assert main(["example", "1", "--h", "0.5", "--h-ref", "1e-3", "--steps", "3"]) == 0
    text = capsys.readouterr().out
    line = [l for l in text.splitlines() if l.startswith("chi vs fine reference")][0]
    assert float(line.split(":")[1]) >= 0.0


# --- example 1's fine reference ---------------------------------------------------------

@pytest.mark.parametrize("h_ref", [None, 1e-3])
def test_example_1_reference_error_estimate(h_ref, example_1_truth):
    run = run_example("1", h_ref=h_ref)
    lattice = zip(run.ref.xs[::run.stride], run.ref.ys[::run.stride])
    true_error = max(float(abs(example_1_truth(x) - y)) for x, y in lattice)
    estimate = run.summary["reference error estimate"]
    if h_ref is None:
        # at round-off: 6.2e-15 against 7.4e-15
        assert true_error / 10 <= estimate <= 10 * true_error
    else:
        # above round-off the raw difference overestimates: 5.3e-11 against 3.5e-12
        assert estimate >= true_error


@pytest.mark.parametrize("example_id", cli.EXAMPLES)
def test_example_runs_equal_the_composed_kernels(example_id):
    # the paper runs, bit for bit and with their stop reasons
    run = run_example(example_id)
    ex = cli.EXAMPLES[example_id]
    spec = SchemeSpec(ex.scheme, ex.forcing, Uniform(run.h))
    seed = Stencil(run.inv.xs[:spec.arity], run.inv.ys[:spec.arity])
    assert (run.inv.xs, run.inv.ys, run.inv.stop) == scheme_reference_loop(
        spec, seed, ex.steps(run.h, run.x0))


def test_example_reference_sizes():
    run = run_example("1")
    assert run.ref.h_nominal == 2e-4
    assert len(run.ref) - 1 <= 7_500
    assert run_example("3").ref.h_nominal == 1e-5


def test_example_1_fine_reference_still_runs(tmp_path, capsys):
    out = tmp_path / "ex1"
    assert main(["example", "1", "--h-ref", "1e-5", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "chi vs fine reference: 1.78624e-06" in lines
    assert [l for l in lines if l.startswith("reference error estimate: ")]
    assert (out / "summary.txt").read_text().splitlines() == lines


def test_example_reused_reference_sets_h_ref():
    first = run_example("1", 0.1, h_ref=1e-3)
    reused = run_example("1", 0.01, ref=first)
    assert reused.stride == 10
    assert reused.inv == run_example("1", 0.01, h_ref=1e-3).inv
    assert run_example("1", 0.01, h_ref=1e-3, ref=first).inv == reused.inv
    # a mismatched h_ref used to stride the reference by 100 and fail the
    # lattice check inside integrate
    with pytest.raises(ValueError, match=r"h-ref 0\.0001 differs .* 0\.001 "):
        run_example("1", 0.01, h_ref=1e-4, ref=first)


def test_example_reuse_refuses_another_example_or_start():
    first = run_example("1", 0.1, h_ref=1e-3)
    # once seeded example 3 from example 1's fourth-order reference
    with pytest.raises(cli.ConfigError, match=r"example '3' differs .* '1' "):
        run_example("3", ref=first)
    # once ran the scheme from the reference's x0 = 1 and the baseline from 1.2
    with pytest.raises(cli.ConfigError, match=r"x0 1\.2 differs .* 1\.0 "):
        run_example("1", 0.1, x0=1.2, ref=first)
    assert run_example("1", 0.1, x0=1.0, ref=first).inv == first.inv


@pytest.fixture
def rk4_steps(monkeypatch):
    """The step of every ``rk4_integrate`` and ``rk4_schwarzian_rate`` call
    ``cli`` makes, in order."""
    calls = []

    def counting(real):
        def run(equation, init, x0, h, n):
            calls.append(h)
            return real(equation, init, x0, h, n)
        return run

    for name in ("rk4_integrate", "rk4_schwarzian_rate"):
        monkeypatch.setattr(cli, name, counting(getattr(cli, name)))
    return calls


def test_example_shared_reference_checked_once(rk4_steps):
    first = run_example("1", 0.1, h_ref=1e-3)
    estimates = {run_example("1", h, ref=first).ref_error for h in (0.1, 0.01)}
    assert estimates == {first.ref_error} and first.ref_error > 0
    # the check run at 2 h_ref ran once for the three runs on one reference
    assert rk4_steps.count(2e-3) == 1
    assert rk4_steps == [1e-3, 2e-3]  # no baseline was asked for


@pytest.mark.parametrize("example_id", [k for k in cli.EXAMPLES if k != "1"])
def test_example_reference_checked_only_where_it_scores(example_id, rk4_steps):
    ex = cli.EXAMPLES[example_id]
    run = run_example(example_id)
    assert run.ref_error is None
    # example 3's reference only seeds the run; the others seed from a solution
    assert rk4_steps == ([] if ex.solution is not None else [ex.h_ref])
    assert run_example(example_id, ref=run).inv == run.inv
    assert len(rk4_steps) <= 1


def test_example_5_stepping_backward_stops_its_baseline_at_the_pole(capsys):
    # from x0 = 0.13 the baseline steps back at -1e-5 and blows up on the near
    # side of the pole at 0.12732; the scheme run ends at x = 0.066, past it
    run = run_example("5", h=-0.001, x0=0.13)
    assert run.base_grid == (-1e-5, 535)
    assert run.base.stop is StopReason.NON_FINITE
    assert cli.TAN_RECIPROCAL_POLE < run.base.xs[-1] < 0.1275
    assert run.inv.xs[-1] < cli.TAN_RECIPROCAL_POLE
    assert main(["example", "5", "--x0", "0.13", "--h=-0.001"]) == 0
    summary = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert summary["baseline stop"] == "non-finite"
    assert summary["beyond singularity"] == "yes"
    assert summary["invariant last x"] == "0.066000000000000003"
    # "before pole" is x0's side, at least 2|h| short of the pole: only the
    # seed's exact x0 is there, and no computed point scores the run
    assert summary["chi vs exact before pole"] == "nan"


def test_example_5_summary_takes_the_sides_of_x0():
    # a backward run from before the pole steps away from it: no baseline,
    # not beyond it, and no point on its way to the pole
    run = run_example("5", h=-0.001, x0=0.1, steps=5)
    assert run.base_grid[1] == 0 and len(run.base) == 1
    assert run.summary["beyond singularity"] == "no"
    assert run.summary["baseline stop"] == "not run"
    assert math.isnan(run.summary["chi vs exact before pole"])
    # a forward run from past the pole is not beyond it either
    assert run_example("5", x0=0.2, steps=5).summary["beyond singularity"] == "no"


def test_example_5_started_past_the_pole(capsys):
    assert main(["example", "5", "--x0", "0.2", "--steps", "5"]) == 0
    text = capsys.readouterr().out
    assert "baseline stop: not run" in text.splitlines()
    line = [l for l in text.splitlines() if l.startswith("chi vs exact before pole")][0]
    assert math.isnan(float(line.split(":")[1]))


# --- library arithmetic errors map to exit status 2 ---------------------------------------

@pytest.mark.parametrize("argv", [
    ["--function", "exp", "--x0", "1000"],
    ["--function", "tan-reciprocal", "--x0", "1e-320"],
    ["--function", "log-abs", "--x0", "1", "--h0", "1e300"],
])
def test_limit_overflowing_jets(argv):
    assert main(["limit", "--invariant", "l3", *argv]) == 2


def test_limit_jet_underflow_names_x(capsys):
    # x ** 4 underflows to zero in the log|x| jet
    argv = ["limit", "--invariant", "l3", "--function", "log-abs", "--x0", "1e-100",
            "--h0", "1e-102"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: derivatives of 1/x out of float range at x = 1e-100\n"


@pytest.mark.parametrize("x0, err", [
    ("200", "derivatives of 1/(1 - e^x) overflow at x = 200.0"),  # a power of e^x
    ("800", "e^x overflows at x = 800.0"),
])
def test_limit_one_over_one_minus_exp_overflow_names_x(x0, err, capsys):
    argv = ["limit", "--invariant", "m3", "--function", "one-over-one-minus-exp",
            "--x0", x0, "--h0", "0.01"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {err}\n"


def test_limit_exp_overflow_names_x(capsys):
    argv = ["limit", "--invariant", "l3", "--function", "exp", "--x0", "710", "--h0", "0.01"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: e^x overflows at x = 710.0\n"


def test_chi_tan_reciprocal_at_tiny_x_names_x(tmp_path, capsys):
    # 1/x rounds to inf at x = 1e-320: exit 2 with an error that names x
    p = tmp_path / "tiny.csv"
    p.write_text("x,y\n1e-320,0.5\n")
    assert main(["chi", str(p), "tan-reciprocal"]) == 2
    assert capsys.readouterr().err == "error: 1/x out of float range at x = 1e-320\n"


def test_parser_is_built_once():
    # main reuses one parser per process: each add_argument builds a help formatter
    assert cli.build_parser() is cli.build_parser()


def test_chi_non_finite_row(tmp_path):
    p = tmp_path / "nan.csv"
    p.write_text("x,y\n0,1\n1,nan\n")
    assert main(["chi", str(p), str(p)]) == 2


def test_chi_all_zero_reference(tmp_path):
    p = tmp_path / "zero.csv"
    write_trajectory_csv(p, _traj([0.0, 0.0, 0.0]))
    assert main(["chi", str(p), str(p)]) == 2


# --- the CSV boundary under fuzzing: exit 0, 2 or 3, never a traceback --------------------

#: a number as a CSV cell: any float (nan and inf included) or near-numeric text
CELLS = st.one_of(st.floats().map(repr),
                  st.sampled_from(["", " ", "1e999", "-0", "0x10", "1_0", "nan ", "+inf"]),
                  st.text(max_size=6))
LINES = st.one_of(
    st.just("x,y"),
    st.builds("{},{}".format, CELLS, CELLS),
    st.builds("{},{},{}".format, CELLS, CELLS, CELLS),  # an extra comma
    st.builds("#{}:{}".format, st.sampled_from(["scheme", " h", "stop ", "", "x"]),
              st.one_of(st.text(max_size=8), CELLS,
                        st.sampled_from([s.value for s in StopReason]))),
    st.text(max_size=20))
#: a '# h:' line for LATTICE_ROWS, or none: on the rows, not a number, not
#: finite, zero or off the rows
H_LINES = st.sampled_from([[], ["# h: 0.1"], ["# h: abc"], ["# h: nan"], ["# h: 0"],
                           ["# h: -0"], ["# h: 0.25"], ["# h: -0.1"]])
#: rows on the lattice x = 0.1*k, so that a seed can pass validation and run
LATTICE_ROWS = st.lists(st.floats(), min_size=3, max_size=7).map(
    lambda ys: [f"{0.1 * k!r},{y!r}" for k, y in enumerate(ys)])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(header=st.booleans(), lines=st.lists(LINES, max_size=8), h_line=H_LINES,
       rows=st.one_of(st.just([]), LATTICE_ROWS), scheme=st.sampled_from(list(SchemeKind)))
def test_csv_fuzz_exits_0_2_or_3(tmp_path, capsys, header, lines, h_line, rows, scheme):
    path = tmp_path / "fuzz.csv"
    path.write_text("\n".join((["x,y"] if header else []) + lines + h_line + rows) + "\n",
                    encoding="utf-8")
    f = str(path)
    assert main(["chi", f, f]) in (0, 2, 3)
    # solve steps on the file's '# h:' value, or else on its first spacing
    assert main(["solve", "--scheme", scheme.value, "--forcing", "1",
                 "--steps", "20", "--seed", f, "--out", str(tmp_path / "out.csv")]) in (0, 2, 3)
    capsys.readouterr()


#: leading or trailing characters that str.strip() drops; float() keeps U+001F
PADS = st.sampled_from(["", " ", "\t", "\x1f", "\xa0", "\u3000", " \x1f "])


def _read_or_error(reader, path):
    try:
        traj = reader(path)
    except Exception as e:  # compared with the oracle's, not handled
        return type(e), str(e)
    return repr(traj.xs), repr(traj.ys), traj.stop, traj.scheme_id, repr(traj.h_nominal)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(header=st.booleans(), lines=st.lists(st.tuples(PADS, LINES, PADS), max_size=8),
       rows=st.one_of(st.just([]), LATTICE_ROWS))
def test_csv_reader_matches_strip_first_oracle(tmp_path, header, lines, rows):
    path = tmp_path / "fuzz.csv"
    body = [a + line + b for a, line, b in lines]
    path.write_text("\n".join((["x,y"] if header else []) + body + rows) + "\n",
                    encoding="utf-8")
    assert (_read_or_error(read_trajectory_csv, path)
            == _read_or_error(csv_reference_reader, path))


# --- main under fuzzing: exit 0, 2 or 3, or argparse's own exit 0 or 2 --------------------

#: hostile option values: zero, negative, non-finite, extreme, huge, not a number
NUMBERS = ["0", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "1e-320", str(10 ** 30),
           "abc", ""]
#: hostile start abscissae: as NUMBERS without the moderate negatives, from
#: which example 5 runs 10^5 baseline steps to its pole
STARTS = ["0", "-1e-320", "1e-320", "nan", "inf", "-inf", "1e308", "-1e308",
          str(10 ** 30), "abc"]
COUNTS = ["0", "-1", str(MAX_STEPS + 1), str(10 ** 30), "1e3", "abc"]
STRAY = ["--bogus", "--bogus=1", "-q", "--help", "-", "--", "abc"]


def _fuzz_options(command, tmp_path):
    """(flag, usable values, hostile values) of each argument of ``command``;
    a None flag marks a positional argument, a None value leaves the option
    out.  Usable values keep every run at 40 steps or levels, or at about
    10^4 steps where an example's own default sets the size."""
    seed = str(_write_seed_csv(tmp_path / "seed.csv", math.exp, 0.1, 0.1, 6))
    files = [str(tmp_path / "missing.csv"), str(tmp_path)]
    steps = (["4", "40", None], COUNTS)
    if command == "example":
        # --h and --h-ref always given: their defaults run example 1 on a
        # 1.5e4-step reference
        return [(None, list(cli.EXAMPLES), ["9"]),
                ("--h", ["0.05", "0.1"], NUMBERS), ("--h-ref", ["1e-3", "5e-3"], NUMBERS),
                ("--steps", *steps), ("--x0", [None], STARTS),
                ("--out", [str(tmp_path / "ex"), None], [seed])]
    if command == "solve":
        # the four required flags are always given in usable runs; the step
        # is the seed file's; --forcing takes a name or a number, and a stale
        # --c or a deleted name exits 2
        return [("--scheme", [k.value for k in SchemeKind], ["rk4", None]),
                ("--forcing", [*cli.FORCINGS, "0.5", "-0", "-1e-4", None],
                 ["nan", "inf", "1e999", "const", "zero", "tan", ""]),
                ("--c", [None], ["2"]), ("--steps", ["4", "40"], COUNTS + [None]),
                ("--seed", [seed], files + [None]),
                ("--out", [str(tmp_path / "out.csv")], [str(tmp_path), None])]
    if command == "chi":
        return [(None, [seed, str(tmp_path / "out.csv")], files),
                (None, [seed, *cli.EXACT_SOLUTIONS], files)]
    return [("--invariant", ["l3", "l4", "l5", "m3", "m4", "m5", "h5"], ["l6", None]),
            ("--function", list(cli.EXACT_SOLUTIONS), ["sin", None]),
            ("--x0", ["0.3", "0.7"], STARTS), ("--h0", ["0.01", None], NUMBERS),
            ("--levels", ["4", "7", "40", None], COUNTS),
            ("--ratio", ["0.5", "0.9", None], NUMBERS)]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_main_fuzz_exits_0_2_or_3(tmp_path, capsys, data):
    command = data.draw(st.sampled_from(["example", "solve", "chi", "limit"]))
    options = _fuzz_options(command, tmp_path)
    # up to two arguments take hostile values, the others usable ones
    hostile = data.draw(st.sets(st.integers(0, len(options) - 1), max_size=2))
    argv = [command]
    for i, (flag, usable, bad) in enumerate(options):
        value = data.draw(st.sampled_from(bad if i in hostile else usable))
        if value is not None:
            # --flag=value, so that argparse takes "-1e308" as a value, not a flag
            argv.append(value if flag is None else f"{flag}={value}")
    stray = data.draw(st.sampled_from([None] * 12 + STRAY))
    if stray is not None:
        argv.insert(data.draw(st.integers(1, len(argv))), stray)
    try:
        code = main(argv)
    except SystemExit as e:  # argparse: --help, or an unusable command line
        assert e.code in (0, 2), argv
    else:
        assert code in (0, 2, 3), argv
    capsys.readouterr()
