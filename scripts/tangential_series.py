"""Show the series at the tangential base point converging, and the Li_n it gives.

First the size of each term H_n z^n of H(z) at the junction point 1/8
(the largest coefficient over all words up to the level), until it falls
below rounding; then, for n = 2..8, the error of the regularized
signature's coefficient of 1 0^(n-1) against the series sum x^k / k^n.

Usage: python scripts/tangential_series.py [--x 0.3] [--level 8]
"""

import argparse

import numpy as np

from alblab.integrals import regularized_signature, series_terms
from alblab.paths import JUNCTION_RADIUS


def polylog_series(n: int, x: complex, terms: int = 400) -> complex:
    return sum(x ** k / k ** n for k in range(1, terms))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--x", type=complex, default=0.3)
    ap.add_argument("--level", type=int, default=8)
    args = ap.parse_args()

    print(f"terms of H(z) at z = {JUNCTION_RADIUS}, level {args.level}")
    for n, term in enumerate(series_terms(JUNCTION_RADIUS, args.level), 1):
        size = float(np.abs(term).max())
        print(f"{n:4d} {size:12.3e}")
        if size <= np.finfo(float).eps:
            break

    print(f"\nLi_n at x = {args.x}: regularized signature against the series")
    for n in range(2, 9):
        sig = regularized_signature(args.x, n)
        err = abs(sig.coefficient("1" + "0" * (n - 1)) - polylog_series(n, args.x))
        print(f"{n:4d} {err:12.3e}")


if __name__ == "__main__":
    main()
