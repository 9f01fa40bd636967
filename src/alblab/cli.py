"""Command-line front end.

Every library operation is reachable from exactly one subcommand (the
table at the bottom is what the coverage test checks).  Output is strict
JSON with sorted keys and fixed separators, so identical inputs produce
byte-identical bytes.  Exit codes: 0 success, 1 domain error, 2
numerical non-convergence or a non-finite answer, 64 unknown subcommand
or usage error, 65 malformed JSON.
"""

from __future__ import annotations

import argparse
import importlib
import json
import re
import sys
from fractions import Fraction

from .errors import (BadJson, ConvergenceError, DomainError, expect, is_json_int, is_json_number,
                     parse_complex)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_NUMERIC = 2
EXIT_USAGE = 64
EXIT_BADJSON = 65


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _loads(text: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise BadJson(f"malformed JSON: {exc}") from exc


def _cjson(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")
_EXPONENT = re.compile(r"[eE][+-]?0*(\d{5,})")   # Fraction("1e9999999") takes seconds
_WEIGHT = re.compile(r"[+-]?[0-9]{1,4300}")   # int() refuses longer digit strings


def _fraction(value) -> Fraction:
    """A rational from JSON: an integer, a float or a string Fraction reads."""
    expect(isinstance(value, str) or is_json_number(value),
           f"expected a rational number, got {value!r}")
    if isinstance(value, str) and _EXPONENT.search(value):
        raise DomainError(f"exponent too large in {value!r}")
    try:
        return Fraction(value)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"not a finite rational: {value!r}") from exc


def _parse_number(text: str):
    """Rational when it looks rational (exact paths stay exact), else complex."""
    s = str(text).strip()
    return _fraction(s) if _RATIONAL.match(s) else parse_complex(s)


def _parse_triple(text: str, parse=_parse_number) -> tuple:
    parts = str(text).split(",")
    if len(parts) != 3:
        raise DomainError(f"expected three comma-separated values, got {text!r}")
    return tuple(parse(p) for p in parts)


def _rational_map(data, what: str) -> dict:
    expect(isinstance(data, dict), f"{what} must be a JSON object")
    return {k: _fraction(v) for k, v in data.items()}


def _series_arg(malcev, text: str, level: int | None):
    """{"level": r, "coefficients": {word: rational}}, or the bare map with --level."""
    data = _loads(text)
    if isinstance(data, dict) and "coefficients" in data:
        level, data = data.get("level"), data["coefficients"]
        expect(is_json_int(level), f"series level must be an integer, got {level!r}")
    elif level is None:
        raise DomainError("bare coefficient maps need --level")
    return malcev.ExactSeries(level, _rational_map(data, "series coefficients"))


def _shuffle_arg(words, text: str):
    data = _loads(text)
    if isinstance(data, str):
        return words.ShuffleElement.from_word(data)
    return words.ShuffleElement(_rational_map(data, "a shuffle element"))


def _path_arg(text: str):
    """A validated path from its JSON spec (the handler's float module has loaded paths)."""
    from .paths import make_path
    return make_path(_loads(text))


def _rational_rows(data, what: str, width: int) -> list:
    expect(isinstance(data, list) and all(isinstance(v, list) and len(v) == width for v in data),
           f"{what} must be a list of lists of {width} rationals")
    return [[_fraction(x) for x in row] for row in data]


# --- handlers --------------------------------------------------------------------

def _h_words_basis(words, args):
    basis = words.word_basis(args.r)
    return {"r": args.r, "count": len(basis), "words": basis}


def _h_words_shuffle(words, args):
    out = words.shuffle_product(_shuffle_arg(words, args.a), _shuffle_arg(words, args.b))
    return {"product": out.to_json()}


def _h_ii_path(paths, args):
    path = paths.make_path(_loads(args.spec))
    return {"segments": len(path.segments), "start": _cjson(path.start), "end": _cjson(path.end)}


def _h_ii_eval(integrals, args):
    path = _path_arg(args.path)
    value, err = integrals.iterated_integral(args.word, path, with_error=True)
    return {"word": args.word, "value": _cjson(value), "abs_err_est": err}


def _h_ii_signature(integrals, args):
    path = _path_arg(args.path)
    return integrals.signature(path, args.level).to_json()


def _h_ii_compose(series, args):
    a, b = (series.TruncatedSeries.from_json(_loads(text)) for text in (args.a, args.b))
    return a.mul(b).to_json()


def _h_ii_regularized(integrals, args):
    return integrals.regularized_signature(parse_complex(args.x), args.level,
                                           loop_prefix=args.loop_prefix).to_json()


def _h_malcev_exp(malcev, args):
    return {"series": malcev.exp_trunc(_series_arg(malcev, args.series, args.level)).to_json()}


def _h_malcev_log(malcev, args):
    return {"series": malcev.log_trunc(_series_arg(malcev, args.series, args.level)).to_json()}


def _h_malcev_classify(malcev, args):
    return {"class": malcev.classify_coproduct(_series_arg(malcev, args.series, args.level))}


def _h_malcev_bch(malcev, args):
    a, b = (_series_arg(malcev, text, args.level) for text in (args.a, args.b))
    return {"series": malcev.bch(a, b).to_json()}


def _h_malcev_hall_dims(malcev, args):
    dims = malcev.hall_dims(args.r)
    return {"dims": dims, "total": sum(dims),
            "representatives": [w for d in range(1, args.r + 1) for w in malcev.lyndon_words(d)]}


def _h_malcev_coords(malcev, args):
    coords = malcev.malcev_coordinates(args.word, args.level)
    return {"level": args.level, "coordinates": {w: str(c) for w, c in sorted(coords.items())}}


def _fmt_number(v):
    if isinstance(v, Fraction):
        return str(v)
    return _cjson(v)


def _h_hodge_filtration(hodge, args):
    alpha, beta, lam = _parse_triple(args.F)
    f = hodge.hodge_filtration_from(alpha, beta, lam)
    return {"coordinates": [_fmt_number(x) for x in f.coordinates()],
            "F0": [[_fmt_number(x) for x in v] for v in f.generators(0)],
            "Fm1": [[_fmt_number(x) for x in v] for v in f.generators(-1)]}


def _h_hodge_transversal(hodge, args):
    n = hodge.NilpotentEndo(*_parse_triple(args.N, _fraction))
    f = hodge.hodge_filtration_from(*_parse_triple(args.F))
    return {"transversal": hodge.griffiths_transversal(n, f)}


def _h_hodge_orbit(hodge, args):
    n = hodge.NilpotentEndo(*_parse_triple(args.N, _fraction))
    f = hodge.hodge_filtration_from(*_parse_triple(args.F))
    result = hodge.generates_nilpotent_orbit(n, f)
    defect = result.criterion_defect
    return {"generates": result.generates,
            "criterion_defect": str(defect) if isinstance(defect, Fraction) else _cjson(defect),
            "admissible": result.admissible, "reason": result.reason}


def _h_hodge_rmf(hodge, args):
    raw = _loads(args.matrix)
    mat = _rational_rows(raw, "--matrix", len(raw) if isinstance(raw, list) else 0)
    hodge.check_rmf_dim(len(mat))   # before W's elimination
    weights = _loads(args.weights)
    expect(isinstance(weights, dict), "--weights maps integer weights to lists of vectors")
    for k in weights:
        expect(_WEIGHT.fullmatch(k) is not None,
               f"--weights keys must be decimal integers, got {k!r}")
    wdata = {int(k): _rational_rows(vs, f"weight {k}", len(mat)) for k, vs in weights.items()}
    expect(len(wdata) == len(weights), "--weights names the same weight twice")
    hodge.check_rmf_bits(mat, [v for vs in wdata.values() for v in vs])   # before W's elimination
    w = hodge.WeightFiltrationGeneric.from_dict(wdata, len(mat))
    m = hodge.relative_monodromy_filtration(mat, w)
    if m is None:
        return {"exists": False}
    return {"exists": True, "filtration": m.to_json()}


def _h_hodge_chart(hodge, args):
    cc = hodge.boundary_chart_point(parse_complex(args.q), parse_complex(args.beta),
                                    parse_complex(getattr(args, "lambda")))
    if cc.kind == "orbit":
        n = cc.orbit_generator
        return {"kind": "orbit", "N": [str(n.a), str(n.b), str(n.c)],
                "lambda": _cjson(cc.orbit_lambda)}
    return {"kind": "interior", "coords": [_cjson(x) for x in cc.coords],
            "reduction": [cc.reduction.a, cc.reduction.b, cc.reduction.c]}


def _h_hodge_reduce(hodge, args):
    alpha, beta, lam = _parse_triple(args.coords)
    reduced, g = hodge.reduce_mod_integral(alpha, beta, lam)
    return {"reduced": [_fmt_number(x) for x in reduced], "matrix": g.matrix()}


def _h_alb_map(albanese, args):
    return albanese.albanese_point(parse_complex(args.x), args.loop_prefix).to_json()


def _h_alb_extend(albanese, args):
    q, beta, lam = albanese.extended_albanese(parse_complex(args.x))
    return {"q": _cjson(q), "beta": _cjson(beta), "lambda": _cjson(lam)}


def _h_alb_monodromy(albanese, args):
    if (args.word is None) == (args.loop is None):
        raise UsageError("alb monodromy takes exactly one of --word and --loop")
    loop = args.word if args.loop is None else _path_arg(args.loop)
    return {"matrix": albanese.monodromy_action(loop).tolist()}


def _h_selftest(acceptance, args):
    results = acceptance.run_acceptance(args.level)
    for r in results:
        print(r.line(), file=sys.stderr)
    return {"level": args.level,
            "passed": all(r.passed for r in results),
            "failures": sum(r.failures for r in results),
            "criteria": [r.to_json() for r in results]}


# --- command table ---------------------------------------------------------------
# operation name -> (subcommand path, handler, module, [(flag, kwargs), ...]);
# the module is imported when the subcommand runs and handed to the handler,
# so a call loads only what it uses (the exact commands never load numpy)

COMMAND_TABLE = {
    "word_basis": ("words basis", _h_words_basis, "words", [("--r", dict(type=int, required=True))]),
    "shuffle_product": ("words shuffle", _h_words_shuffle, "words",
                        [("--a", dict(required=True)), ("--b", dict(required=True))]),
    "make_path": ("ii path", _h_ii_path, "paths", [("--spec", dict(required=True))]),
    "iterated_integral": ("ii eval", _h_ii_eval, "integrals",
                          [("--word", dict(required=True)), ("--path", dict(required=True))]),
    "signature": ("ii signature", _h_ii_signature, "integrals",
                  [("--path", dict(required=True)), ("--level", dict(type=int, default=2))]),
    "compose_signatures": ("ii compose", _h_ii_compose, "series",
                           [("--a", dict(required=True)), ("--b", dict(required=True))]),
    "regularized_signature": ("ii regularized", _h_ii_regularized, "integrals",
                              [("--x", dict(required=True)),
                               ("--level", dict(type=int, default=2)),
                               ("--loop-prefix", dict(default="", dest="loop_prefix"))]),
    "exp_trunc": ("malcev exp", _h_malcev_exp, "malcev",
                  [("--series", dict(required=True)), ("--level", dict(type=int, default=None))]),
    "log_trunc": ("malcev log", _h_malcev_log, "malcev",
                  [("--series", dict(required=True)), ("--level", dict(type=int, default=None))]),
    "classify_coproduct": ("malcev classify", _h_malcev_classify, "malcev",
                           [("--series", dict(required=True)),
                            ("--level", dict(type=int, default=None))]),
    "bch": ("malcev bch", _h_malcev_bch, "malcev",
            [("--level", dict(type=int, default=None)), ("--a", dict(required=True)),
             ("--b", dict(required=True))]),
    "hall_dims": ("malcev hall-dims", _h_malcev_hall_dims, "malcev",
                  [("--r", dict(type=int, required=True))]),
    "malcev_coordinates": ("malcev coords", _h_malcev_coords, "malcev",
                           [("--word", dict(required=True)),
                            ("--level", dict(type=int, default=2))]),
    "hodge_filtration_from": ("hodge filtration", _h_hodge_filtration, "hodge",
                              [("--F", dict(required=True))]),
    "griffiths_transversal": ("hodge transversal", _h_hodge_transversal, "hodge",
                              [("--N", dict(required=True)), ("--F", dict(required=True))]),
    "generates_nilpotent_orbit": ("hodge orbit", _h_hodge_orbit, "hodge",
                                  [("--N", dict(required=True)), ("--F", dict(required=True))]),
    "relative_monodromy_filtration": ("hodge rmf", _h_hodge_rmf, "hodge",
                                      [("--matrix", dict(required=True)),
                                       ("--weights", dict(required=True))]),
    "boundary_chart_point": ("hodge chart", _h_hodge_chart, "hodge",
                             [("--q", dict(required=True)), ("--beta", dict(required=True)),
                              ("--lambda", dict(required=True))]),
    "reduce_mod_integral": ("hodge reduce", _h_hodge_reduce, "hodge",
                            [("--coords", dict(required=True))]),
    "albanese_point": ("alb map", _h_alb_map, "albanese",
                       [("--x", dict(required=True)),
                        ("--loop-prefix", dict(default="", dest="loop_prefix"))]),
    "extended_albanese": ("alb extend", _h_alb_extend, "albanese", [("--x", dict(required=True))]),
    "monodromy_action": ("alb monodromy", _h_alb_monodromy, "albanese",
                         [("--word", dict(default=None)), ("--loop", dict(default=None))]),
    "selftest": ("selftest", _h_selftest, "acceptance",
                 [("--level", dict(default="quick", choices=["quick", "full"]))]),
}


_DISPATCH = {tuple(row[0].split()): row for row in COMMAND_TABLE.values()}


# exception -> exit code; DomainError is a ValueError
_EXIT_CODES = ((UsageError, EXIT_USAGE), (BadJson, EXIT_BADJSON),
               (ValueError, EXIT_DOMAIN), (ConvergenceError, EXIT_NUMERIC))


def _dumps(out) -> str:
    """Strict JSON: a NaN or an infinity raises ValueError instead of printing."""
    return json.dumps(out, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _answer(argv) -> tuple[int, dict]:
    """(exit code, output or {"error": ...}) of one invocation; the output is strict JSON."""
    try:
        out, code = _run(argv)
        try:
            _dumps(out)
        except ValueError as exc:
            raise ConvergenceError(f"non-finite output from {' '.join(argv[:2])}: "
                                   "JSON has no NaN or infinity") from exc
    except (UsageError, BadJson, ValueError, ConvergenceError) as exc:
        code = next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
        return code, {"error": str(exc)}
    return code, out


def run_command(argv: list[str]) -> int:
    """Execute one CLI invocation; prints JSON to stdout, returns the exit code."""
    code, out = _answer(argv)
    print(_dumps(out))
    return code


def _run(argv):
    if not argv:
        raise UsageError("no subcommand; see README for the command table")
    if argv[0] == "--json-in":
        return _run_batch(argv)
    if tuple(argv[:2]) in _DISPATCH:
        key, rest = tuple(argv[:2]), argv[2:]
    elif tuple(argv[:1]) in _DISPATCH:
        key, rest = tuple(argv[:1]), argv[1:]
    else:
        raise UsageError(f"unknown subcommand: {' '.join(argv[:2]) or '(none)'}")
    _subcmd, handler, module, flags = _DISPATCH[key]
    parser = _Parser(prog="alblab " + " ".join(key), add_help=False)
    for flag, kwargs in flags:
        parser.add_argument(flag, **kwargs)
    ns = parser.parse_args(rest)
    return handler(importlib.import_module(f"{__package__}.{module}"), ns), EXIT_OK


def _run_batch(argv):
    source = argv[1] if len(argv) > 1 else "-"
    if len(argv) > 2 or (source != "-" and source.startswith("-")):
        raise UsageError(f"batch mode takes one input file or '-', got {' '.join(argv[1:])}")
    if source == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(source) as fh:
                text = fh.read()
        except OSError as exc:
            raise DomainError(f"cannot read batch input: {exc}") from exc
    data = _loads(text)
    requests = data.get("requests") if isinstance(data, dict) else data
    if not isinstance(requests, list) or not all(isinstance(r, list) for r in requests):
        raise BadJson("batch input must be a list of argv arrays")
    results = []
    for req in requests:
        code, out = _answer([str(t) for t in req])
        results.append({"exit_code": code, "output": out} if code == EXIT_OK
                       else {"exit_code": code, **out})
    return {"results": results}, EXIT_OK


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
