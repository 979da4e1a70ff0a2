"""Shared value types: lattice points, stencils, jets, trajectories and the
vocabulary describing one scheme run.

Everything here is an immutable value; instances can be shared freely
between threads.  A :class:`Trajectory` of a lattice run forms its abscissae
on the first read of ``xs``; concurrent first reads build the same tuple.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Point:
    """One lattice node (x, y)."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise NonFiniteError(f"non-finite point ({self.x}, {self.y})")


@dataclass(frozen=True, init=False)
class Stencil:
    """Ordered window of 3..6 consecutive lattice points, stored as tuples
    of their abscissae and ordinates.

    The checks run in this order: equal lengths; finite points, naming the
    first non-finite one (NonFiniteError); 3..6 points; strictly monotone
    abscissae, where decreasing order expresses backward integration.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]

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
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self) -> int:
        return len(self.xs)


@dataclass(frozen=True)
class Jet:
    """Value and derivatives (y, y', ..., y^(5)) at an abscissa x; ``d``
    becomes a tuple of six floats, and x and each entry must be finite."""

    x: float
    d: tuple[float, ...]

    def __post_init__(self):
        d = tuple(map(float, self.d))
        object.__setattr__(self, "d", d)
        if len(d) != 6:
            raise ValueError(f"jet needs entries for orders 0..5, got {len(d)}")
        if not (math.isfinite(self.x) and all(map(math.isfinite, d))):
            raise NonFiniteError("non-finite jet entry")


class StopReason(Enum):
    COMPLETED = "completed"
    NO_REAL_ROOT = "no-real-root"
    DEGENERATE_COEFFICIENT = "degenerate-coefficient"
    NON_FINITE = "non-finite"


@dataclass(frozen=True)
class Trajectory:
    """Computed abscissae and ordinates plus the reason extension ceased.

    A run on a uniform lattice keeps its seed abscissae and forms ``xs``
    when it is first read (see :meth:`_on_lattice`)."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    stop: StopReason
    scheme_id: str
    h_nominal: float

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
        object.__setattr__(self, "xs", xs)
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

@dataclass(frozen=True)
class Constant:
    """Constant right-hand side."""

    c: float

    def __post_init__(self):
        if not math.isfinite(self.c):
            raise ValueError(f"constant forcing {self.c!r} is not finite")


@dataclass(frozen=True)
class FunctionOfX:
    """Function of x as the right-hand side; must be total on the
    integration interval."""

    fn: Callable[[float], float]


@dataclass(frozen=True)
class IdentityInY:
    """Right-hand side equal to the dependent variable itself, taken at the
    new point or, with ``stencil_mean``, as the mean over the full stencil."""

    stencil_mean: bool = False


ForcingTerm = Constant | FunctionOfX | IdentityInY


# --- lattice rules -----------------------------------------------------------

@dataclass(frozen=True)
class Uniform:
    """Equally spaced abscissae x_n = x0 + n*h."""

    h: float

    def __post_init__(self):
        if not math.isfinite(self.h):
            raise ValueError(f"lattice step {self.h!r} is not finite")
        if self.h == 0:
            raise ValueError("uniform lattice needs a nonzero step")


@dataclass(frozen=True)
class ConstantS:
    """Lattice with constant x cross-ratio K, extended from a three-point seed."""

    K: float
    seed: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "seed", tuple(self.seed))
        a, b, c = self.seed
        if not all(map(math.isfinite, (self.K, a, b, c))):
            raise ValueError("cross-ratio constant K and seed must be finite")
        if not ((a < b < c) or (a > b > c)):
            raise ValueError("seed abscissae must be strictly monotone")
        if self.K == 0:
            raise ValueError("cross-ratio constant K must be nonzero")


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


@dataclass(frozen=True)
class SchemeSpec:
    """Which scheme, forcing and lattice define a run; refuses a forcing the scheme cannot run."""

    scheme: SchemeKind
    forcing: ForcingTerm
    lattice: Uniform

    def __post_init__(self):
        if not isinstance(self.forcing, takes := SCHEME_FORCINGS[self.scheme]):
            raise ValueError(f"{self.scheme.value} takes {' or '.join(t.__name__ for t in takes)}"
                             f" forcings, not {type(self.forcing).__name__}")
        if not isinstance(self.lattice, Uniform):
            raise ValueError("schemes run on uniform lattices only")

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
