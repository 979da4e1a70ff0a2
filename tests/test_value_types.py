"""The contract every value type of the library keeps: equality and hash over
its fields, a repr that names them, immutability, and copy, deepcopy and
pickle round trips."""
import copy
import math
import pickle

import pytest

from invdisc import (Constant, ConstantS, CrossRatioWindow, ExactSolution, FunctionOfX,
                     IdentityInY, InvariantTriple, Jet, LimitProbe, LimitReport, OdeSystem,
                     Point, SchemeKind, SchemeSpec, Stencil, StopReason, Trajectory, Uniform)
from invdisc.cli import Example, ExampleRun

TRAJ_REPR = ("Trajectory(xs=(0.0, 0.1), ys=(1.0, 2.0), stop=<StopReason.COMPLETED: "
             "'completed'>, scheme_id='sly4', h_nominal=0.1)")

#: name -> (a builder of one value, its field names, the repr it prints); the
#: callables are built-ins, so that each repr is fixed and each value pickles
VALUES = {
    "Point": (lambda: Point(1.0, 2.0), ("x", "y"), "Point(x=1.0, y=2.0)"),
    "Stencil": (lambda: Stencil([0.0, 1.0, 2.0], (1.0, 2.0, 4.0)), ("xs", "ys"),
                "Stencil(xs=(0.0, 1.0, 2.0), ys=(1.0, 2.0, 4.0))"),
    "Jet": (lambda: Jet(0.5, [1, 2, 3, 4, 5, 6]), ("x", "d"),
            "Jet(x=0.5, d=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0))"),
    "Trajectory": (lambda: Trajectory((0.0, 0.1), (1.0, 2.0), StopReason.COMPLETED, "sly4", 0.1),
                   ("xs", "ys", "stop", "scheme_id", "h_nominal"), TRAJ_REPR),
    "Constant": (lambda: Constant(1.5), ("c",), "Constant(c=1.5)"),
    "FunctionOfX": (lambda: FunctionOfX(math.cos), ("fn",),
                    "FunctionOfX(fn=<built-in function cos>)"),
    "IdentityInY": (lambda: IdentityInY(stencil_mean=True), ("stencil_mean",),
                    "IdentityInY(stencil_mean=True)"),
    "Uniform": (lambda: Uniform(0.25), ("h",), "Uniform(h=0.25)"),
    "ConstantS": (lambda: ConstantS(2.0, [0.0, 1.0, 3.0]), ("K", "seed"),
                  "ConstantS(K=2.0, seed=(0.0, 1.0, 3.0))"),
    "SchemeSpec": (lambda: SchemeSpec(SchemeKind.SLX3, Constant(0.5), Uniform(0.01)),
                   ("scheme", "forcing", "lattice"),
                   "SchemeSpec(scheme=<SchemeKind.SLX3: 'slx3'>, forcing=Constant(c=0.5), "
                   "lattice=Uniform(h=0.01))"),
    "Example": (lambda: Example(SchemeKind.H5, Constant(0.0), 0.1, -1.0, max, ("invariant stop",),
                                solution=ExactSolution(math.exp, math.cos)),
                ("scheme", "forcing", "h", "x0", "steps", "summary", "solution", "init", "span",
                 "baseline_grid", "h_ref"),
                "Example(scheme=<SchemeKind.H5: 'h5'>, forcing=Constant(c=0.0), h=0.1, x0=-1.0, "
                "steps=<built-in function max>, summary=('invariant stop',), "
                "solution=ExactSolution(eval_fn=<built-in function exp>, "
                "jet_fn=<built-in function cos>), init=None, span=None, baseline_grid=None, "
                "h_ref=1e-05)"),
    "ExampleRun": (lambda: ExampleRun("4", 0.1, -1.0, (1.0, 2.0), (0.1, 3),
                                      VALUES["Trajectory"][0](), None, 1, None),
                   ("id", "h", "x0", "init", "base_grid", "inv", "ref", "stride", "ref_error"),
                   f"ExampleRun(id='4', h=0.1, x0=-1.0, init=(1.0, 2.0), base_grid=(0.1, 3), "
                   f"inv={TRAJ_REPR}, ref=None, stride=1, ref_error=None)"),
    "OdeSystem": (lambda: OdeSystem(3, math.hypot), ("order", "rhs", "name"),
                  "OdeSystem(order=3, rhs=<built-in function hypot>, name='ode')"),
    "ExactSolution": (lambda: ExactSolution(math.exp, math.cos), ("eval_fn", "jet_fn"),
                      "ExactSolution(eval_fn=<built-in function exp>, "
                      "jet_fn=<built-in function cos>)"),
    "LimitProbe": (lambda: LimitProbe("l3", math.exp, 0.0, [0.1, 0.05, 0.025, 1 / 80]),
                   ("invariant", "test_function", "x_center", "h_sequence", "lattice",
                    "target_fn"),
                   "LimitProbe(invariant='l3', test_function=<built-in function exp>, "
                   "x_center=0.0, h_sequence=(0.1, 0.05, 0.025, 0.0125), lattice=None, "
                   "target_fn=None)"),
    "LimitReport": (lambda: LimitReport((0.1,), (1.0,), (0.5,), (1.5,), 2.0, 1.0, 1),
                    ("hs", "values", "errors", "targets", "estimated_order", "limit_value",
                     "floor_level"),
                    "LimitReport(hs=(0.1,), values=(1.0,), errors=(0.5,), targets=(1.5,), "
                    "estimated_order=2.0, limit_value=1.0, floor_level=1)"),
    "InvariantTriple": (lambda: InvariantTriple(1.0, 2.0, 3.0), ("third", "fourth", "fifth"),
                        "InvariantTriple(third=1.0, fourth=2.0, fifth=3.0)"),
    "CrossRatioWindow": (lambda: CrossRatioWindow(0.0, 1.0, 2.0, 3.0), ("a0", "a1", "a2", "a3"),
                         "CrossRatioWindow(a0=0.0, a1=1.0, a2=2.0, a3=3.0)"),
}


def test_every_value_type_is_covered():
    assert len(VALUES) == 18


@pytest.mark.parametrize("name", list(VALUES))
def test_value_type_contract(name):
    build, fields, want_repr = VALUES[name]
    a, b = build(), build()
    assert type(a).__name__ == name
    assert a == b and not a != b and hash(a) == hash(b)
    assert repr(a) == want_repr
    # the same field values in another type: unequal both ways
    twin = copy.copy(a)
    object.__setattr__(twin, "__class__", type(name, (type(a),), {}))
    assert a != twin and twin != a
    for field in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(a, field, 0.0)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert a == b and all(getattr(a, f) == getattr(b, f) for f in fields)
    for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        c = clone(a)
        assert type(c) is type(a) and c == a and hash(c) == hash(a) and repr(c) == want_repr


def test_same_fields_in_another_type_are_unequal():
    assert Constant(1.0) != Uniform(1.0) and Uniform(1.0) != Constant(1.0)
    assert InvariantTriple(1.0, 2.0, 3.0) != (1.0, 2.0, 3.0)
    assert Point(1.0, 2.0) != (1.0, 2.0)
