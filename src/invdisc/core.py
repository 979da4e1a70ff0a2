"""Shared value types: lattice points, stencils, jets, trajectories and the
vocabulary describing one scheme run.

Everything here is an immutable value; instances can be shared freely
between threads.  The value types are plain classes on :class:`_Value`, so
that importing the package generates no code.  A :class:`Trajectory` of a
lattice run forms its abscissae on the first read of ``xs``; concurrent
first reads build the same tuple.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from enum import Enum
from operator import gt, lt


class DegenerateCoefficientError(ArithmeticError):
    """A denominator factor (or leading coefficient) vanished within tolerance."""


class NonFiniteError(ArithmeticError):
    """A computed quantity is NaN or infinite."""


class DomainError(ValueError):
    """An exact solution was evaluated at one of its singular points."""


#: |d| <= DEGENERACY_RTOL * local_scale marks a denominator as vanishing.
DEGENERACY_RTOL = 1e-13

#: values beyond this magnitude count as a blow-up during integration.
OVERFLOW_LIMIT = 1e300


def is_degenerate(d: float, scale: float) -> bool:
    """Scale-aware vanishing test for denominator factors."""
    return abs(d) <= DEGENERACY_RTOL * scale


class _Value:
    """Base of the immutable value types.  A subclass names its fields in
    ``_fields`` and sets them in its own ``__init__``; ``==``, ``hash`` and
    ``repr`` read them in that order, and no attribute can be set or deleted.
    Instances keep a ``__dict__``: a lattice run's lazy ``xs``, cached
    properties, copy and pickle write to it directly."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Point(_Value):
    """One lattice node (x, y)."""

    _fields = ("x", "y")

    def __init__(self, x: float, y: float):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise NonFiniteError(f"non-finite point ({x}, {y})")
        self.__dict__.update(x=x, y=y)


class Stencil(_Value):
    """Ordered window of 3..6 consecutive lattice points, stored as tuples
    of their abscissae and ordinates.

    The checks run in this order: equal lengths; finite points, naming the
    first non-finite one (NonFiniteError); 3..6 points; strictly monotone
    abscissae, where decreasing order expresses backward integration.
    """

    _fields = ("xs", "ys")

    def __init__(self, xs: Iterable[float], ys: Iterable[float]):
        xs, ys = tuple(xs), tuple(ys)
        if len(xs) != len(ys):
            raise ValueError("xs and ys must have equal length")
        if not all(map(math.isfinite, xs + ys)):
            x, y = next((x, y) for x, y in zip(xs, ys)
                        if not (math.isfinite(x) and math.isfinite(y)))
            raise NonFiniteError(f"non-finite point ({x}, {y})")
        if not 3 <= len(xs) <= 6:
            raise ValueError(f"stencil needs 3..6 points, got {len(xs)}")
        # with every x finite, b - a > 0 is a < b
        if not (all(map(lt, xs, xs[1:])) or all(map(gt, xs, xs[1:]))):
            raise ValueError("stencil abscissae must be strictly monotone")
        self.__dict__.update(xs=xs, ys=ys)

    def __len__(self) -> int:
        return len(self.xs)


class Jet(_Value):
    """Value and derivatives (y, y', ..., y^(5)) at an abscissa x; ``d``
    becomes a tuple of six floats, and x and each entry must be finite."""

    _fields = ("x", "d")

    def __init__(self, x: float, d: Iterable[float]):
        d = tuple(map(float, d))
        if len(d) != 6:
            raise ValueError(f"jet needs entries for orders 0..5, got {len(d)}")
        if not (math.isfinite(x) and all(map(math.isfinite, d))):
            raise NonFiniteError("non-finite jet entry")
        self.__dict__.update(x=x, d=d)


class StopReason(Enum):
    COMPLETED = "completed"
    NO_REAL_ROOT = "no-real-root"
    DEGENERATE_COEFFICIENT = "degenerate-coefficient"
    NON_FINITE = "non-finite"


class Trajectory(_Value):
    """Computed abscissae and ordinates plus the reason extension ceased.

    A run on a uniform lattice keeps its seed abscissae and forms ``xs``
    when it is first read (see :meth:`_on_lattice`)."""

    _fields = ("xs", "ys", "stop", "scheme_id", "h_nominal")

    def __init__(self, xs: tuple[float, ...], ys: tuple[float, ...], stop: StopReason,
                 scheme_id: str, h_nominal: float):
        self.__dict__.update(xs=xs, ys=ys, stop=stop, scheme_id=scheme_id, h_nominal=h_nominal)

    @classmethod
    def _on_lattice(cls, head: tuple[float, ...], ys: tuple[float, ...], stop: StopReason,
                    scheme_id: str, h: float) -> Trajectory:
        """The run whose nodes past ``head`` lie at head[0] + k*h."""
        self = cls.__new__(cls)
        vars(self).update(_head=head, ys=ys, stop=stop, scheme_id=scheme_id, h_nominal=h)
        return self

    def __getattr__(self, name: str):
        # only an _on_lattice run lacks xs; a concurrent first read builds the same tuple
        if name != "xs":
            raise AttributeError(name)
        head, h = self._head, self.h_nominal
        x0 = float(head[0])
        # the advanced nodes only, by a list comprehension: faster than a generator
        xs = head + tuple([x0 + k * h for k in range(len(head), len(self.ys))])
        self.__dict__["xs"] = xs
        return xs

    def __len__(self) -> int:
        return len(self.ys)

    @property
    def points(self) -> Sequence[Point]:
        """The nodes as :class:`Point` values, each built and checked only
        when it is read."""
        return _Points(self)


class _Points(Sequence):
    """Read-only view of a trajectory's nodes as points."""

    __slots__ = ("_traj",)

    def __init__(self, traj: Trajectory):
        self._traj = traj

    def __len__(self) -> int:
        return len(self._traj.ys)

    def __getitem__(self, i: int | slice) -> Point | tuple[Point, ...]:
        traj = self._traj
        if isinstance(i, slice):
            return tuple(map(Point, traj.xs[i], traj.ys[i]))
        return Point(traj.xs[i], traj.ys[i])

    def __iter__(self) -> Iterator[Point]:
        return map(Point, self._traj.xs, self._traj.ys)


# --- forcing terms -----------------------------------------------------------

class Constant(_Value):
    """Constant right-hand side."""

    _fields = ("c",)

    def __init__(self, c: float):
        if not math.isfinite(c):
            raise ValueError(f"constant forcing {c!r} is not finite")
        self.__dict__["c"] = c


class FunctionOfX(_Value):
    """Function of x as the right-hand side; must be total on the
    integration interval."""

    _fields = ("fn",)

    def __init__(self, fn: Callable[[float], float]):
        self.__dict__["fn"] = fn


class IdentityInY(_Value):
    """Right-hand side equal to the dependent variable itself, taken at the
    new point or, with ``stencil_mean``, as the mean over the full stencil."""

    _fields = ("stencil_mean",)

    def __init__(self, stencil_mean: bool = False):
        self.__dict__["stencil_mean"] = stencil_mean


ForcingTerm = Constant | FunctionOfX | IdentityInY


# --- lattice rules -----------------------------------------------------------

class Uniform(_Value):
    """Equally spaced abscissae x_n = x0 + n*h."""

    _fields = ("h",)

    def __init__(self, h: float):
        if not math.isfinite(h):
            raise ValueError(f"lattice step {h!r} is not finite")
        if h == 0:
            raise ValueError("uniform lattice needs a nonzero step")
        self.__dict__["h"] = h


class ConstantS(_Value):
    """Lattice with constant x cross-ratio K, extended from a three-point seed."""

    _fields = ("K", "seed")

    def __init__(self, K: float, seed: Iterable[float]):
        seed = tuple(seed)
        a, b, c = seed
        if not all(map(math.isfinite, (K, a, b, c))):
            raise ValueError("cross-ratio constant K and seed must be finite")
        if not ((a < b < c) or (a > b > c)):
            raise ValueError("seed abscissae must be strictly monotone")
        if K == 0:
            raise ValueError("cross-ratio constant K must be nonzero")
        self.__dict__.update(K=K, seed=seed)


# --- scheme run configuration ------------------------------------------------

class SchemeKind(Enum):
    SLY4 = "sly4"
    SLX3 = "slx3"
    H5 = "h5"


#: points each scheme steps from (the new point extends these by one).
SCHEME_ARITY = {SchemeKind.SLY4: 4, SchemeKind.SLX3: 3, SchemeKind.H5: 5}

#: the forcings each scheme takes: l4 = f(x), m3 = c or y, h5 = c.
SCHEME_FORCINGS = {SchemeKind.SLY4: (Constant, FunctionOfX),
                   SchemeKind.SLX3: (Constant, IdentityInY), SchemeKind.H5: (Constant,)}


class SchemeSpec(_Value):
    """Which scheme, forcing and lattice define a run; refuses a forcing the scheme cannot run."""

    _fields = ("scheme", "forcing", "lattice")

    def __init__(self, scheme: SchemeKind, forcing: ForcingTerm, lattice: Uniform):
        if not isinstance(forcing, takes := SCHEME_FORCINGS[scheme]):
            raise ValueError(f"{scheme.value} takes {' or '.join(t.__name__ for t in takes)}"
                             f" forcings, not {type(forcing).__name__}")
        if not isinstance(lattice, Uniform):
            raise ValueError("schemes run on uniform lattices only")
        self.__dict__.update(scheme=scheme, forcing=forcing, lattice=lattice)

    @property
    def arity(self) -> int:
        return SCHEME_ARITY[self.scheme]


def seed_stencil_from_function(f: Callable[[float], float], x0: float, h: float,
                               n: int) -> Stencil:
    """Sample (x0 + k*h, f(x0 + k*h)) for k = 0..n-1 into a seed stencil."""
    xs = tuple(x0 + k * h for k in range(n))
    return Stencil(xs, tuple(map(f, xs)))


def stencil_from_sequences(xs: Sequence[float], ys: Sequence[float]) -> Stencil:
    return Stencil(xs, ys)
