"""Sweep the extended map toward the puncture and watch the chart coordinates.

Prints (q, beta, lambda) for x = 10^-1 .. 10^-5 on the real axis together
with the bound |beta|, |lambda| <= 2|x| and the distance between the chart
class and the directly computed class.

Usage: python scripts/boundary_limit.py [--decades 5]
"""

import argparse

from alblab.albanese import albanese_point, extended_albanese
from alblab.hodge import boundary_chart_point


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--decades", type=int, default=5)
    args = ap.parse_args()

    print(f"{'x':>10} {'|beta|':>12} {'|lambda|':>12} {'2|x| bound':>11} {'chart vs direct':>16}")
    for k in range(1, args.decades + 1):
        x = 10.0 ** (-k)
        q, beta, lam = extended_albanese(x)
        chart = boundary_chart_point(q, beta, lam)
        direct = albanese_point(x)
        dist = max(abs(a - b) for a, b in zip(chart.coords, direct.coords))
        ok = "ok" if abs(beta) <= 2 * x and abs(lam) <= 2 * x else "VIOLATED"
        print(f"{x:10.1e} {abs(beta):12.4e} {abs(lam):12.4e} {ok:>11} {dist:16.3e}")
    print("\nlimit at x = 0:", extended_albanese(0))


if __name__ == "__main__":
    main()
