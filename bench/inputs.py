"""Seeded inputs of the four workloads.

The seed picks values only; how many operations of each kind a round has,
their levels, word lengths, letter counts and instance dimensions are fixed,
so that two seeds cost about the same.  Inputs that show a known fault do
not depend on the seed.  Every operation is a dict {"op", "args"}; the
ones that fail today for a fault in alblab also carry "expect_fail".
"""

from __future__ import annotations

import cmath
import json
import math
import random
from fractions import Fraction

import oracles

WORKLOADS = ("albanese", "deep_series", "exact", "cli")

# Valid points that take long: 1e-7 past the puncture 1, and 1e-8 above the cut.
SLOW_POINTS = (1.0000001 + 0j, 2 + 1e-8j)
# Valid points the reach builder rejects with "segment passes through the puncture".
REJECTED_POINTS = (1e-12 + 0j, 2 + 1e-14j)
REJECT_FAULT = "canonical_reach builds a segment that Path's 1e-12 puncture test refuses"
# The eps-ladder extrapolation misses Li_n from level 6 on (error 1e-6 .. 1e-4).
LADDER_LEVELS = ((6, 0.5 + 0j), (7, 0.3 + 0.2j), (8, -0.7 + 0.1j))
LADDER_FAULT = "integrals._eps_extrapolate misses Li_n at this level without raising"

COMMUTATOR = "0 1 0^-1 1^-1"
# letters of the seeded loop words, lengths 1 to 5; the seed picks order and signs
MONODROMY_LETTERS = ("0", "1", "01", "011", "0011", "01011")


def _cx(z: complex) -> list:
    return [z.real, z.imag]


def _polar(rng, lo: float, hi: float) -> complex:
    """Modulus log-uniform in [lo, hi], argument uniform in (-pi, pi)."""
    r = 10 ** rng.uniform(math.log10(lo), math.log10(hi))
    return r * cmath.exp(1j * rng.uniform(-math.pi * 0.98, math.pi * 0.98))


NEAR = (1e-3, 2e-3, 5e-3, 1e-2, 3e-2, 0.1)   # distances of the points near 0, near 1 and off the cut


def albanese_points(rng) -> list:
    """Targets at stated distances from 0, from 1 and from the cut beyond 1.

    The distances are fixed and the seed picks the rest, so that the cost
    of a round hardly depends on the seed.
    """
    pts = [d * cmath.exp(1j * rng.uniform(-math.pi * 0.98, math.pi * 0.98)) for d in NEAR]
    # near 1, on the side away from the cut
    pts += [1 + d * cmath.exp(1j * rng.uniform(math.pi / 3, 5 * math.pi / 3)) for d in NEAR]
    pts += [complex(rng.uniform(1.2, 4.0), rng.choice((1, -1)) * d) for d in NEAR]  # off the cut
    pts += [complex(rng.uniform(1.1, 4.0), 0.0) for _ in range(4)]   # on the cut, from above
    pts += [complex(-rng.uniform(0.05, 4.0), 0.0) for _ in range(3)]  # negative axis
    pts += [complex(rng.uniform(0.02, 0.98), 0.0) for _ in range(3)]  # on (0, 1)
    return pts + bulk_points(rng, 4)


def bulk_points(rng, n: int) -> list:
    """n points with |x| in [0.2, 5] and |1-x| > 0.2."""
    pts: list = []
    while len(pts) < n:
        z = _polar(rng, 0.2, 5.0)
        if abs(1 - z) > 0.2:
            pts.append(z)
    return pts


def loop_word(rng, letters: str) -> str:
    order = list(letters)
    rng.shuffle(order)
    toks: list = []
    for gen in order:
        sign = rng.choice((1, -1))
        if toks and toks[-1][0] == gen and toks[-1][1] == -sign:
            sign = -sign   # never let a letter cancel its neighbour
        toks.append((gen, sign))
    return " ".join(g if s == 1 else f"{g}^-1" for g, s in toks)


def _albanese(rng) -> list:
    """The quick operations, then the two slow points (about 6 s together)."""
    quick = [{"op": "alb_map", "args": {"x": _cx(x)}} for x in albanese_points(rng)]
    quick += [{"op": "alb_map", "args": {"x": _cx(x)}, "expect_fail": REJECT_FAULT}
              for x in REJECTED_POINTS]
    quick += [{"op": "alb_extend", "args": {"x": _cx(_polar(rng, 0.01, 0.45))}} for _ in range(6)]
    quick += [{"op": "alb_monodromy", "args": {"word": loop_word(rng, letters)}}
              for letters in MONODROMY_LETTERS]
    quick.append({"op": "alb_monodromy", "args": {"word": COMMUTATOR, "commutator": True}})
    slow = [{"op": "alb_map", "args": {"x": _cx(x)}} for x in SLOW_POINTS]
    return quick + slow


def polyline(rng, n: int) -> list:
    """n waypoints one radian apart on the circle |z - 1/2| = 6/5, from a seeded angle.

    Every segment stays 0.55 from both punctures and all polylines have one
    shape up to rotation and reflection, so their transport costs about the
    same for every seed.
    """
    start, turn = rng.uniform(-math.pi, math.pi), rng.choice((1, -1))
    return [0.5 + 1.2 * cmath.exp(1j * (start + turn * k)) for k in range(n)]


def _wp(pts) -> dict:
    return {"waypoints": [_cx(p) for p in pts]}


def _chen_triple(path: dict, first: dict, second: dict, level: int, base: int) -> list:
    """Signatures of a path and of its two parts; the checker glues the parts."""
    return [{"op": "ii_signature", "args": {"path": path, "level": level},
             "chen": [base + 1, base + 2]},
            {"op": "ii_signature", "args": {"path": first, "level": level}},
            {"op": "ii_signature", "args": {"path": second, "level": level}}]


def _deep_series(rng) -> list:
    ops: list = []
    for n_pts, cut, level in ((3, 1, 8), (4, 2, 7), (3, 1, 6)):
        pts = polyline(rng, n_pts)
        ops += _chen_triple(_wp(pts), _wp(pts[: cut + 1]), _wp(pts[cut:]), level, len(ops))
    for turns0, level in ((1, 8), (2, 6)):
        g0 = {"loop": "gamma0", "turns": rng.choice((1, -1)) * turns0}
        g1 = {"loop": "gamma1", "turns": rng.choice((1, -1))}
        ops += _chen_triple({"compose": [g0, g1]}, g0, g1, level, len(ops))
    for level in (2, 2, 4, 4):
        while True:
            x = _polar(rng, 0.2, 3.0)
            if abs(1 - x) > 0.2:
                break
        ops.append({"op": "ii_regularized", "args": {"x": _cx(x), "level": level}})
    ops += [{"op": "ii_regularized", "args": {"x": _cx(x), "level": level},
             "expect_fail": LADDER_FAULT} for level, x in LADDER_LEVELS]
    for length in (3, 4, 5, 6, 7, 8):
        word = "".join(rng.choice("01") for _ in range(length))
        ops.append({"op": "ii_eval", "args": {"word": word, "path": _wp(polyline(rng, 3))}})
    return ops


def _fr(rng, num: int = 6, den: int = 5) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _fmap(d: dict) -> dict:
    return {w: str(c) for w, c in sorted(d.items())}


def lie_element(rng) -> dict:
    """Random rational combination of e0, e1, [e0, e1] and [e0, [e0, e1]]."""
    coords = {w: _fr(rng) for w in ("0", "1", "01", "001")}
    if not coords["0"] and not coords["1"]:
        coords["0"] = Fraction(1)
    return oracles.lie_element(coords)


# (weights, block sizes) of the RMF instances, dimensions 2, 3, 4, 4
RMF_SHAPES = (((0,), (2,)), ((-1, 1), (1, 2)), ((-2, 0), (2, 2)), ((-2, 0, 2), (1, 2, 1)))


def rmf_instance(rng, weights, sizes):
    """(N, W) with an RMF by construction: W-split N0, conjugated by a W-preserving g.

    N0 has nonzero entries above the diagonal of each block, so every block is
    one Jordan chain and the seed picks entries only, not the Jordan type.
    """
    dim, n_jumps = sum(sizes), len(sizes)
    starts = [sum(sizes[:k]) for k in range(n_jumps + 1)]
    block = [k for k in range(n_jumps) for _ in range(sizes[k])]
    n0 = [[Fraction(rng.choice((-2, -1, 1, 2))) if block[i] == block[j] and i < j
           else Fraction(0) for j in range(dim)] for i in range(dim)]
    u = [[Fraction(rng.randint(-2, 2)) if block[i] < block[j] else Fraction(0)
          for j in range(dim)] for i in range(dim)]

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(dim)) for j in range(dim)] for i in range(dim)]

    ident = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    g = [[ident[i][j] + u[i][j] for j in range(dim)] for i in range(dim)]
    g_inv, power = ident, ident            # (1 + U)^-1 = sum (-U)^k, U nilpotent
    for k in range(1, dim):
        power = mul(power, u)
        g_inv = [[g_inv[i][j] + (-1) ** k * power[i][j] for j in range(dim)] for i in range(dim)]
    mat = mul(mul(g, n0), g_inv)
    w = {str(weights[k]): [[str(int(i == j)) for j in range(dim)] for i in range(starts[k + 1])]
         for k in range(n_jumps)}
    return [[str(x) for x in row] for row in mat], w


def _exact(rng) -> list:
    ops: list = []
    for level, letters in ((4, "0011"), (5, "00111"), (6, "001011")):
        ops.append({"op": "malcev_coords", "args": {"word": loop_word(rng, letters), "level": level}})
    for level in (4, 5, 6):
        ops.append({"op": "malcev_bch", "args": {"a": _fmap(lie_element(rng)),
                                                 "b": _fmap(lie_element(rng)), "level": level}})
    for level in (4, 5, 6):
        ops.append({"op": "malcev_exp", "args": {"series": _fmap(lie_element(rng)), "level": level}})
    for level in (4, 5, 6):
        g = oracles.fexp(lie_element(rng), level)
        ops.append({"op": "malcev_log", "args": {"series": _fmap(g), "level": level}})
    for level in (4, 5, 6):
        h = lie_element(rng)
        g = oracles.fexp(h, level)
        neither = dict(g)
        neither["00"] = neither.get("00", 0) + 1   # breaks 2 g(00) = g(0)^2
        for kind, series in (("primitive", h), ("grouplike", g), ("neither", neither)):
            ops.append({"op": "malcev_classify",
                        "args": {"series": _fmap(series), "level": level, "expect": kind}})
    ops += [{"op": "malcev_hall_dims", "args": {"r": r}} for r in (8, 10)]
    for la, lb in ((2, 3), (3, 3), (4, 2), (3, 4)):
        a = {"".join(rng.choice("01") for _ in range(la)): _fr(rng) or Fraction(1) for _ in range(2)}
        b = {"".join(rng.choice("01") for _ in range(lb)): _fr(rng) or Fraction(1) for _ in range(2)}
        ops.append({"op": "words_shuffle", "args": {"a": _fmap(a), "b": _fmap(b)}})
    for k in range(6):
        a, b, alpha, beta, lam = (_fr(rng) for _ in range(5))
        c = a * beta - b * alpha if k % 2 == 0 else a * beta - b * alpha + (_fr(rng) or 1)
        ops.append({"op": "hodge_orbit",
                    "args": {"N": [str(a), str(b), str(c)], "F": [str(alpha), str(beta), str(lam)]}})
    for weights, sizes in RMF_SHAPES:
        mat, w = rmf_instance(rng, weights, sizes)
        ops.append({"op": "hodge_rmf", "args": {"matrix": mat, "weights": w}})
        ops.append({"op": "rmf_brute", "args": {"matrix": mat, "weights": w}})
    return ops


def _cli(rng) -> list:
    """One single call per command group, one batch of alb map, one quick selftest."""
    albanese = _albanese(rng)
    deep = _deep_series(rng)
    exact = _exact(rng)
    singles = [
        next(op for op in exact if op["op"] == "words_shuffle"),
        next(op for op in deep if op["op"] == "ii_regularized"),
        next(op for op in exact if op["op"] == "malcev_coords"),
        next(op for op in exact if op["op"] == "hodge_orbit"),
        albanese[0],
    ]
    batch = [{"op": "alb_map", "args": {"x": _cx(x)}} for x in bulk_points(rng, 16)]
    return singles + [{"op": "batch", "requests": batch}, {"op": "selftest", "args": {}}]


def generate(workload: str, seed: int) -> list:
    """The operations of one round of the workload."""
    rng = random.Random(f"alblab-bench:{workload}:{seed}")
    return {"albanese": _albanese, "deep_series": _deep_series,
            "exact": _exact, "cli": _cli}[workload](rng)


def cli_argv(op: dict):
    """The alblab command line that performs the operation, or None if it has none."""
    kind, a = op["op"], op.get("args", {})
    if kind == "batch":
        return ["--json-in", "-"]
    x = json.dumps(a.get("x"))
    table = {
        "alb_map": lambda: ["alb", "map", "--x", x],
        "alb_extend": lambda: ["alb", "extend", "--x", x],
        "alb_monodromy": lambda: ["alb", "monodromy", "--word", a["word"]],
        "ii_signature": lambda: ["ii", "signature", "--path", json.dumps(a["path"]),
                                 "--level", str(a["level"])],
        "ii_regularized": lambda: ["ii", "regularized", "--x", x, "--level", str(a["level"])],
        "ii_eval": lambda: ["ii", "eval", "--word", a["word"], "--path", json.dumps(a["path"])],
        "malcev_coords": lambda: ["malcev", "coords", "--word", a["word"], "--level", str(a["level"])],
        "malcev_bch": lambda: ["malcev", "bch", "--level", str(a["level"]),
                               "--a", json.dumps(a["a"]), "--b", json.dumps(a["b"])],
        "malcev_exp": lambda: ["malcev", "exp", "--series", json.dumps(a["series"]),
                               "--level", str(a["level"])],
        "malcev_log": lambda: ["malcev", "log", "--series", json.dumps(a["series"]),
                               "--level", str(a["level"])],
        "malcev_classify": lambda: ["malcev", "classify", "--series", json.dumps(a["series"]),
                                    "--level", str(a["level"])],
        "malcev_hall_dims": lambda: ["malcev", "hall-dims", "--r", str(a["r"])],
        "words_shuffle": lambda: ["words", "shuffle", "--a", json.dumps(a["a"]),
                                  "--b", json.dumps(a["b"])],
        # "=" keeps argparse from reading a leading minus sign as a flag
        "hodge_orbit": lambda: ["hodge", "orbit", "--N=" + ",".join(a["N"]), "--F=" + ",".join(a["F"])],
        "hodge_rmf": lambda: ["hodge", "rmf", "--matrix", json.dumps(a["matrix"]),
                              "--weights", json.dumps(a["weights"])],
        "selftest": lambda: ["selftest", "--level", "quick"],
    }
    return table[kind]() if kind in table else None


def batch_stdin(op: dict) -> str:
    return json.dumps([cli_argv(req) for req in op["requests"]])
