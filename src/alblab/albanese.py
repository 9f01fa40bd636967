"""The degree-two Albanese map of the thrice-punctured line.

Points of the target are unipotent-group classes recorded by reduced
coordinates (alpha, beta, lambda); the map sends x to the class built
from the three regularized periods log(x), -log(1-x) and the
dilogarithm, all divided by the right powers of 2*pi*i.  Beside the map
are the integer monodromy action, the extension into the boundary chart,
and the logarithms N0, N1 of the two generator matrices with the
filtration bookkeeping that makes them morphisms of mixed Hodge
structure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

import numpy as np

from . import linalg
from .errors import DomainError
from .hodge import TWO_PI_I, reduce_mod_integral
from .integrals import ConvergenceError, regularized_loop_transport, regularized_signature
from .series import TruncatedSeries

EXTENSION_DISK_RADIUS = 0.5
INTEGER_TOL = 1e-6   # how far a continuation entry may lie from its integer; the 58 bench words reach 3.7e-15


@dataclass(frozen=True)
class AlbanesePoint:
    """Reduced class coordinates plus the record of how they were reached."""

    alpha: complex
    beta: complex
    lam: complex
    reduction: tuple          # (a, b, c) of the integer matrix used to reduce
    loop_prefix: str = ""
    raw: tuple = ()           # unreduced coordinates, for continuation tests

    @property
    def coords(self) -> tuple:
        return (self.alpha, self.beta, self.lam)

    def distance(self, other: "AlbanesePoint") -> float:
        return max(abs(a - b) for a, b in zip(self.coords, other.coords))

    def to_json(self) -> dict:
        return {
            "alpha": [self.alpha.real, self.alpha.imag],
            "beta": [self.beta.real, self.beta.imag],
            "lambda": [self.lam.real, self.lam.imag],
            "reduction_matrix": [[1, self.reduction[1], self.reduction[2]],
                                 [0, 1, self.reduction[0]], [0, 0, 1]],
        }


def period_coordinates(s: TruncatedSeries) -> tuple:
    """(alpha, beta, lambda): the "0", "1" and "10" coefficients of a
    regularized series over 2 pi i, 2 pi i and (2 pi i)^2."""
    return (s.coefficient("0") / TWO_PI_I, s.coefficient("1") / TWO_PI_I,
            s.coefficient("10") / TWO_PI_I ** 2)


def raw_coordinates(x, loop_prefix: str = "", level: int = 2) -> tuple:
    """Unreduced (alpha, beta, lambda) of x along the chosen homotopy class."""
    return period_coordinates(regularized_signature(x, level, loop_prefix=loop_prefix))


def albanese_point(x, homotopy_class: str = "") -> AlbanesePoint:
    """Class of x in reduced coordinates; the class is path independent."""
    raw = raw_coordinates(x, loop_prefix=homotopy_class)
    reduced, g = reduce_mod_integral(*raw)
    abc = (int(g[1][2]), int(g[0][1]), int(g[0][2]))
    return AlbanesePoint(*reduced, reduction=abc, loop_prefix=homotopy_class, raw=raw)


def extended_albanese(x) -> tuple:
    """Chart coordinates (q, beta, lambda) of x in the boundary chart.

    Defined on the disk |x| < 1/2 around the puncture, with (0, 0, 0) at
    the puncture itself, where the image is the rank-1 nilpotent orbit.
    """
    x = complex(x)
    if x == 0:
        return (0j, 0j, 0j)
    if abs(x) >= EXTENSION_DISK_RADIUS:
        raise DomainError(f"extension chart needs |x| < {EXTENSION_DISK_RADIUS}")
    _, beta, lam = raw_coordinates(x)
    return (x, beta, lam)


def monodromy_action(loop) -> np.ndarray:
    """Integer matrix by which continuation along the loop acts on the left.

    ``loop`` is a group word (a string or a GroupWord), a path spec or a
    Path based on the positive real axis.  The period
    coordinates (a, b, c) of the loop's transport at the tangential base
    point give the matrix [[1, b, c], [0, 1, a], [0, 0, 1]]; an entry more
    than INTEGER_TOL from its integer raises ConvergenceError.
    """
    a, b, c = period_coordinates(regularized_loop_transport(loop, 2))
    g = np.array([[1, b, c], [0, 1, a], [0, 0, 1]], dtype=complex)
    rounded = np.rint(g.real)
    defect = float(np.max(np.abs(g - rounded)))
    if defect > INTEGER_TOL:
        raise ConvergenceError(
            f"continuation entries are {defect:.2e} away from integers")
    return rounded.astype(int)


# --- MHS morphism bookkeeping ---------------------------------------------------

def monodromy_logarithms() -> dict:
    """{"N0": log M0, "N1": log M1} as exact Fraction matrices, where M0 and
    M1 are the integer continuation matrices of the loops about 0 and 1.

    Both are unipotent 3 x 3 upper-triangular, so (g - 1)^3 = 0 and
    log g = (g - 1) - (g - 1)^2 / 2.
    """
    logs = {}
    for name, word in (("N0", "0"), ("N1", "1")):
        u = [[Fraction(int(x) - (i == j)) for j, x in enumerate(row)]
             for i, row in enumerate(monodromy_action(word))]
        logs[name] = [[x - y / 2 for x, y in zip(row, row2)]
                      for row, row2 in zip(u, linalg.product(u, u))]
    return logs


_BASIS_WEIGHTS = (-4, -2, 0)
_BASIS_TYPES = ((-2, -2), (-1, -1), (0, 0))


def _check_operator(mat, op_weight: int, op_type: tuple) -> dict:
    w_ok, f_ok = True, True
    for i in range(3):
        for j in range(3):
            if mat[i][j] == 0:
                continue
            if _BASIS_WEIGHTS[i] > _BASIS_WEIGHTS[j] + op_weight:
                w_ok = False
            expected = (_BASIS_TYPES[j][0] + op_type[0], _BASIS_TYPES[j][1] + op_type[1])
            if _BASIS_TYPES[i] != expected:
                f_ok = False
    return {"weight_compatible": w_ok, "type_compatible": f_ok}


def check_lie_action(action: dict) -> dict:
    """W- and type-compatibility of an action {N0: matrix, N1: matrix}."""
    n0, n1 = action["N0"], action["N1"]
    bracket = [[x - y for x, y in zip(r, s)]
               for r, s in zip(linalg.product(n1, n0), linalg.product(n0, n1))]
    report = {
        "N0": _check_operator(n0, -2, (-1, -1)),
        "N1": _check_operator(n1, -2, (-1, -1)),
        "[N1,N0]": _check_operator(bracket, -4, (-2, -2)),
    }
    report["passes"] = all(v["weight_compatible"] and v["type_compatible"]
                           for k, v in report.items() if k != "passes")
    return report


# --- frozen build-time constants --------------------------------------------------

def regression_constants() -> dict:
    with resources.files("alblab").joinpath("regression_constants.json").open() as fh:
        return json.load(fh)

