"""CLI: spec examples, exit codes, determinism, batch mode, coverage."""

import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import alblab
from alblab.cli import (COMMAND_TABLE, EXIT_BADJSON, EXIT_DOMAIN, EXIT_NUMERIC,
                        EXIT_OK, EXIT_USAGE, run_command)
from alblab.hodge import MAX_RMF_BITS, MAX_RMF_DIM
from alblab.malcev import MAX_WORD_LETTERS


def _rmf_argv(mat):
    """hodge rmf of an integer matrix with one weight, 0."""
    n = len(mat)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    return ["hodge", "rmf", "--matrix", json.dumps(mat), "--weights", json.dumps({"0": identity})]


def run(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def _fresh_python(code: str, *args: str, stdin: str | None = None):
    """Run code in a new interpreter that imports this checkout's alblab."""
    src = str(Path(alblab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *args], input=stdin,
                          capture_output=True, text=True, env=env)


# one valid call of every subcommand but the selftest
_ONE_VALID_CALL = {
    "word_basis": ["words", "basis", "--r", "2"],
    "shuffle_product": ["words", "shuffle", "--a", '{"01":"1/2","1":"3"}', "--b", '"10"'],
    "make_path": ["ii", "path", "--spec", '{"waypoints":[[0.25,0],[0.5,0]]}'],
    "iterated_integral": ["ii", "eval", "--word", "0", "--path", '{"loop":"gamma0","turns":1}'],
    "signature": ["ii", "signature", "--path", '{"waypoints":[[0.25,0],[0.5,0]]}'],
    "compose_signatures": ["ii", "compose", "--a", '{"level":1,"coefficients":{"":[1,0],"0":[2,0]}}',
                           "--b", '{"level":1,"coefficients":{"":[1,0],"1":[0,1]}}'],
    "regularized_signature": ["ii", "regularized", "--x", "0.5"],
    "exp_trunc": ["malcev", "exp", "--series", '{"0":"1","1":"1/2"}', "--level", "3"],
    "log_trunc": ["malcev", "log", "--series", '{"":"1","0":"1"}', "--level", "3"],
    "classify_coproduct": ["malcev", "classify", "--series", '{"0":"1"}', "--level", "2"],
    "bch": ["malcev", "bch", "--a", '{"0":"1"}', "--b", '{"1":"1"}', "--level", "3"],
    "hall_dims": ["malcev", "hall-dims", "--r", "4"],
    "malcev_coordinates": ["malcev", "coords", "--word", "0 1 0^-1 1^-1", "--level", "3"],
    "hodge_filtration_from": ["hodge", "filtration", "--F", "1/2,0.3,2"],
    "griffiths_transversal": ["hodge", "transversal", "--N", "1,2,3", "--F", "1,1,4"],
    "generates_nilpotent_orbit": ["hodge", "orbit", "--N", "1,2,3", "--F", "1,2,1"],
    "relative_monodromy_filtration": ["hodge", "rmf", "--matrix", "[[0,1],[0,0]]",
                                      "--weights", '{"0":[[1,0],[0,1]]}'],
    "boundary_chart_point": ["hodge", "chart", "--q", "0.5", "--beta", "0.1", "--lambda", "0.2"],
    "reduce_mod_integral": ["hodge", "reduce", "--coords", "1.5,-0.25,2"],
    "albanese_point": ["alb", "map", "--x", "0.3+0.2i"],
    "extended_albanese": ["alb", "extend", "--x", "0.1"],
    "monodromy_action": ["alb", "monodromy", "--loop", '{"loop":"gamma1","turns":1}'],
}


def _readme_examples() -> list:
    """(argv, comment) of each `alblab ...` line in README's sh blocks, with
    backslash continuations joined.  The selftest lines are left to the
    acceptance tests, and batch mode (piped in by echo) to TestBatch."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = "".join(re.findall(r"```sh\n(.*?)```", readme, re.S)).replace("\\\n", " ")
    examples = []
    for line in lines.splitlines():
        if line.startswith("alblab ") and not line.startswith("alblab selftest"):
            command, _, comment = line.partition(" #")
            examples.append((shlex.split(command)[1:], comment.strip()))
    return examples


class TestReadme:
    @pytest.mark.parametrize("argv, comment", [
        pytest.param(argv, comment, id=f"{k}-{' '.join(argv[:2])}")
        for k, (argv, comment) in enumerate(_readme_examples())])
    def test_example_runs(self, capsys, argv, comment):
        # a comment that is a whole JSON document is the example's exact output
        assert run_command(argv) == EXIT_OK
        out = capsys.readouterr().out.strip()
        try:
            expected = json.loads(comment)
        except ValueError:
            return
        assert out == json.dumps(expected, sort_keys=True, separators=(",", ":"))


class TestSpecExamples:
    def test_ii_eval_gamma0(self, capsys):
        code, out = run(capsys, ["ii", "eval", "--word", "0",
                                 "--path", '{"loop":"gamma0","turns":1}'])
        assert code == EXIT_OK
        assert abs(out["value"][0]) < 1e-9
        assert abs(out["value"][1] - 2 * math.pi) < 1e-9

    def test_hodge_orbit(self, capsys):
        code, out = run(capsys, ["hodge", "orbit", "--N", "1,1,0", "--F", "0,0,0"])
        assert code == EXIT_OK
        assert out["generates"] is True

    def test_hodge_orbit_failing(self, capsys):
        code, out = run(capsys, ["hodge", "orbit", "--N", "1,0,1", "--F", "0,0,0"])
        assert code == EXIT_OK
        assert out["generates"] is False

    @pytest.mark.parametrize("c", ("1.01e-12", "1.2e-12", "1.5e-12", "2e-12"))
    def test_hodge_orbit_next_to_the_float_tolerance(self, capsys, c):
        # a float flag is decided by the 1e-12 criterion alone: just past it
        # neither the orbit nor transversality holds
        code, out = run(capsys, ["hodge", "orbit", f"--N=1,0,{c}", "--F=0.0,0.0,0.0"])
        assert code == EXIT_OK
        assert out["generates"] is False
        assert out["criterion_defect"] == [float(c), 0.0]
        code, out = run(capsys, ["hodge", "transversal", f"--N=1,0,{c}", "--F=0.0,0.0,0.0"])
        assert (code, out) == (EXIT_OK, {"transversal": False})

    @pytest.mark.parametrize("flag", ("0,nan,0", "1e999,0,0", "0,0,-1e999", "1" + "0" * 400 + ",0.5,0"),
                             ids=("nan", "inf", "-inf", "rational-past-float"))
    @pytest.mark.parametrize("command", ("filtration", "transversal", "orbit"))
    def test_non_finite_flag(self, capsys, command, flag):
        argv = ["hodge", command, f"--F={flag}"] + ([] if command == "filtration" else ["--N=1,0,0"])
        code, out = run(capsys, argv)
        assert code == EXIT_DOMAIN
        assert "finite" in out["error"]

    def test_alb_extend_zero(self, capsys):
        code, out = run(capsys, ["alb", "extend", "--x", "0"])
        assert code == EXIT_OK
        assert out == {"q": [0.0, 0.0], "beta": [0.0, 0.0], "lambda": [0.0, 0.0]}


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, _ = run(capsys, ["bogus", "thing"])
        assert code == EXIT_USAGE

    def test_no_arguments(self, capsys):
        code, _ = run(capsys, [])
        assert code == EXIT_USAGE

    def test_malformed_json(self, capsys):
        code, _ = run(capsys, ["ii", "eval", "--word", "0", "--path", "{oops"])
        assert code == EXIT_BADJSON

    def test_domain_error(self, capsys):
        code, _ = run(capsys, ["ii", "eval", "--word", "0",
                               "--path", '{"waypoints":[[0.5,0],[1.0,0]]}'])
        assert code == EXIT_DOMAIN

    def test_numeric_error(self, capsys):
        # a thousand turns cannot be resolved to the fixed tolerance within the panel budget
        code, out = run(capsys, ["ii", "signature", "--path", '{"loop":"gamma0","turns":1000}'])
        assert code == EXIT_NUMERIC
        assert out == {"error": "transport did not reach 1e-10 within 4096 panels"}

    def test_targets_at_the_end_of_the_float_range(self, capsys):
        code, _ = run(capsys, ["alb", "map", "--x", "1e308"])
        assert code == EXIT_OK
        for x in ("nan", "1.7e308+1.7e308j"):
            code, out = run(capsys, ["alb", "map", "--x", x])
            assert code == EXIT_DOMAIN
            assert "finite" in out["error"]

    def test_next_to_one(self, capsys):
        # one ulp beyond 1 and 1e-310 above it are both reached on the spiral
        # about 1; beta = -log(1 - x)/(2 pi i) reduces to its class mod 1
        for x, log_omx in (("1.0000000000000002", complex(math.log(2 ** -52), -math.pi)),
                           ("1+1e-310j", complex(math.log(1e-310), -math.pi / 2))):
            code, out = run(capsys, ["alb", "map", "--x", x])
            assert code == EXIT_OK
            beta = -log_omx / (2j * math.pi)
            assert abs(complex(*out["beta"]) - complex(beta.real % 1, beta.imag)) < 1e-9

    @pytest.mark.parametrize("key", ("x", "1_0"))
    def test_weight_keys_are_decimal_integers(self, capsys, key):
        # int() alone would read "1_0" as the weight 10 and fail on "x" with its own message
        code, out = run(capsys, ["hodge", "rmf", "--matrix", "[[0]]",
                                 "--weights", json.dumps({key: [[1]]})])
        assert code == EXIT_BADJSON
        assert "--weights" in out["error"]

    def test_nilpotent_arity(self, capsys):
        for sub in ("orbit", "transversal"):
            code, out = run(capsys, ["hodge", sub, "--N", "1,1", "--F", "1,1"])
            assert code == EXIT_DOMAIN
            assert "three" in out["error"]

    def test_empty_compose(self, capsys):
        code, out = run(capsys, ["ii", "eval", "--word", "1", "--path", '{"compose":[]}'])
        assert code == EXIT_DOMAIN
        assert "compose" in out["error"]

    def test_workers_flag_is_gone(self, capsys, monkeypatch):
        import io
        code, _ = run(capsys, ["alb", "map", "--x", "0.5", "--workers", "2"])
        assert code == EXIT_USAGE
        monkeypatch.setattr(sys, "stdin", io.StringIO("[]"))
        code, _ = run(capsys, ["--json-in", "-", "--workers", "2"])
        assert code == EXIT_USAGE

    def test_panel_cap_exit_code(self, capsys):
        # a hundred thousand turns cannot be resolved within the panel cap
        code, out = run(capsys, ["ii", "signature", "--level", "2",
                                 "--path", '{"loop":"gamma0","turns":100000}'])
        assert code == EXIT_NUMERIC
        assert "panels" in out["error"]

    @pytest.mark.parametrize("turns", (10 ** 5, 10 ** 6, 10 ** 8, 2 ** 53))
    @pytest.mark.parametrize("loop", ("gamma0", "gamma1"))
    def test_many_turn_loops(self, capsys, loop, turns):
        # a named loop ends exactly where it starts, whatever its turns; past
        # the panel budget its monodromy exits 2, never 1 as a broken path
        spec = json.dumps({"loop": loop, "turns": turns})
        code, out = run(capsys, ["ii", "path", "--spec", spec])
        assert code == EXIT_OK
        assert out["start"] == out["end"] == [0.125, 0.0]
        code, out = run(capsys, ["alb", "monodromy", "--loop", spec])
        assert code == EXIT_NUMERIC
        assert "panels" in out["error"]

    def test_missing_flag(self, capsys):
        code, _ = run(capsys, ["ii", "eval", "--word", "0"])
        assert code == EXIT_USAGE

    def test_non_finite_tolerance(self, capsys):
        # the tolerance is fixed: --abs-tol is no flag, whatever its value
        for argv in (["alb", "map", "--x", "0.5"], ["words", "basis", "--r", "1"],
                     ["ii", "eval", "--word", "0", "--path", '{"loop":"gamma0"}']):
            for tol in ("nan", "inf", "1e-6", "1e-10"):
                code, out = run(capsys, argv + ["--abs-tol", tol])
                assert code == EXIT_USAGE
                assert "--abs-tol" in out["error"]

    @pytest.mark.parametrize("spec", [
        '{"loop":"gamma0","turn":3}', '{"loop":"gamma1","turns":2,"waypoints":[0.5,0.25]}',
        '{"compose":[{"loop":"gamma0"}],"waypoints":[0.125,0.25]}',
        '{"waypoints":[0.125,0.25],"loops":"gamma1"}', '{"waypoints":[0.5,0.25],"turns":2}',
        '{"compose":[{"loop":"gamma0"}],"turns":2}', '{}', '{"turns":2}',
        '{"tangential_start":{"at":0,"vector":[1,0]},"waypoints":[0.5]}',
        '{"waypoints":[0.5,0.25],"tangential_end":{"at":1}}',
        '{"compose":[{"tangential_start":{"at":0},"waypoints":[0.125]},{"loop":"gamma0"}]}',
    ])
    def test_path_spec_names_one_form(self, capsys, spec):
        # a spec names exactly one of waypoints, loop (with turns) and compose,
        # and no other key; any other key is a shape error, not ignored
        for argv in (["ii", "path", "--spec", spec], ["alb", "monodromy", "--loop", spec],
                     ["ii", "signature", "--path", spec]):
            code, out = run(capsys, argv)
            assert code == EXIT_BADJSON
            assert "spec" in out["error"]

    @pytest.mark.parametrize("argv", [
        ["malcev", "exp", "--series", '{"level":true,"coefficients":{"0":"1"}}'],
        ["malcev", "bch", "--a", '{"level":true,"coefficients":{"0":"1"}}',
         "--b", '{"level":1,"coefficients":{"1":"1"}}'],
        ["malcev", "exp", "--series", '{"0":true}', "--level", "2"],
        ["words", "shuffle", "--a", '{"01":false}', "--b", '"0"'],
        ["ii", "compose", "--a", '{"level":true,"coefficients":{"":[1,0]}}',
         "--b", '{"level":1,"coefficients":{"":[1,0]}}'],
        ["ii", "compose", "--a", '{"level":1,"coefficients":{"":[true,false]}}',
         "--b", '{"level":1,"coefficients":{"":[1,0]}}'],
        ["ii", "path", "--spec", '{"loop":"gamma0","turns":true}'],
        ["ii", "path", "--spec", '{"waypoints":[[true,false],[0.5,0]]}'],
        ["ii", "path", "--spec", '{"waypoints":[true,0.5]}'],
        # a retired tangential anchor is refused whatever its "at"
        ["ii", "path", "--spec", '{"tangential_start":{"at":true,"vector":[1,0]},"waypoints":[0.5]}'],
    ], ids=["exp-level", "bch-level", "exp-rational", "shuffle-rational", "compose-level",
            "compose-pair", "turns", "waypoint-pair", "waypoint", "anchor-at"])
    def test_json_booleans_are_not_numbers(self, capsys, argv):
        # Python reads JSON true and false as the ints 1 and 0
        code, out = run(capsys, argv)
        assert code == EXIT_BADJSON
        assert set(out) == {"error"}

    def test_size_caps(self, capsys):
        # each of these used to run out of time or memory
        for argv in (["words", "basis", "--r", "40"],
                     ["malcev", "hall-dims", "--r", "200"],
                     ["malcev", "coords", "--word", "0", "--level", "30"],
                     ["ii", "signature", "--path", '{"loop":"gamma0"}', "--level", "30"],
                     ["ii", "regularized", "--x", "0.5", "--level", "30"],
                     _rmf_argv([[0] * (MAX_RMF_DIM + 1)] * (MAX_RMF_DIM + 1))):
            start = time.perf_counter()
            code, out = run(capsys, argv)
            assert time.perf_counter() - start < 1
            assert code == EXIT_DOMAIN
            assert "between" in out["error"]

    def test_rmf_at_the_dimension_cap(self, capsys):
        n = MAX_RMF_DIM
        block = [[int(j == i + 1) for j in range(n)] for i in range(n)]
        code, out = run(capsys, _rmf_argv(block))
        assert code == EXIT_OK
        assert sorted(map(int, out["filtration"])) == list(range(1 - n, n, 2))

    def test_rmf_entry_size_cap(self, capsys):
        # the dimension times the bits of the widest entry: 48 x 48 with
        # 20-digit entries used to take 7 s
        n = MAX_RMF_DIM
        widest = 2 ** (MAX_RMF_BITS // n) - 1
        for entry, expected in ((widest, EXIT_OK), (widest + 1, EXIT_DOMAIN)):
            block = [[entry * int(j == i + 1) for j in range(n)] for i in range(n)]
            code, out = run(capsys, _rmf_argv(block))
            assert code == expected
            if code == EXIT_OK:
                assert sorted(map(int, out["filtration"])) == list(range(1 - n, n, 2))
            else:
                assert "bits" in out["error"]
        # two dimensions leave room for wide entries; a denominator counts as well
        half = MAX_RMF_BITS // 2
        for mat, expected in (([[0, 2 ** half - 1], [0, 0]], EXIT_OK),
                              ([[0, 2 ** half], [0, 0]], EXIT_DOMAIN),
                              ([[0, 1], [0, f"1/{2 ** half}"]], EXIT_DOMAIN)):
            assert run(capsys, _rmf_argv(mat))[0] == expected

    def test_rmf_entry_size_cap_on_the_weights(self, capsys):
        half = MAX_RMF_BITS // 2
        for vec, expected in (([2 ** half - 1, 0], EXIT_OK), ([2 ** half, 0], EXIT_DOMAIN)):
            argv = ["hodge", "rmf", "--matrix", "[[0,1],[0,0]]",
                    "--weights", json.dumps({"-1": [vec], "1": [[1, 0], [0, 1]]})]
            code, out = run(capsys, argv)
            assert code == expected
            assert "bits" in out["error"] if code else out["exists"]

    def test_rmf_over_the_entry_cap_is_refused_at_once(self, capsys):
        # not nilpotent, and 20-digit entries: refused before N's powers
        n = MAX_RMF_DIM
        mat = [[10 ** 19 + i + j if j > i else 0 for j in range(n)] for i in range(n)]
        mat[n - 1][0] = 1
        start = time.perf_counter()
        code, out = run(capsys, _rmf_argv(mat))
        assert time.perf_counter() - start < 0.5
        assert code == EXIT_DOMAIN
        assert "bits" in out["error"]

    def test_rmf_of_the_zero_space(self, capsys):
        # W.jumps[-1] of the empty filtration used to raise IndexError
        code, out = run(capsys, ["hodge", "rmf", "--matrix", "[]", "--weights", "{}"])
        assert code == EXIT_OK
        assert out == {"exists": True, "filtration": {}}

    def test_group_word_cap(self, capsys):
        # powers used to expand letter by letter: 0^3000 ran past 30 s
        at_cap = f"0^{MAX_WORD_LETTERS}"
        code, _ = run(capsys, ["alb", "monodromy", "--word", at_cap])
        assert code == EXIT_OK
        for argv in (["alb", "map", "--x", "0.5", "--loop-prefix", "0^3000"],
                     ["alb", "map", "--x", "0.5", "--loop-prefix", f"{at_cap} 1"],
                     ["alb", "monodromy", "--word", "1^-1000000000000"],
                     ["malcev", "coords", "--word", "0^1000000", "--level", "2"]):
            start = time.perf_counter()
            code, out = run(capsys, argv)
            assert time.perf_counter() - start < 1
            assert code == EXIT_DOMAIN
            assert "at most" in out["error"]

    def test_shuffle_caps(self, capsys):
        # 10 + 10 letters took 4 s; a 2000-letter word overflowed the recursion
        for a, b in (("0" * 10, "1" * 10), ("0" * 2000, "1")):
            start = time.perf_counter()
            code, out = run(capsys, ["words", "shuffle", "--a", f'"{a}"', "--b", f'"{b}"'])
            assert time.perf_counter() - start < 1
            assert code == EXIT_DOMAIN
            assert set(out) == {"error"}

    @pytest.mark.parametrize("argv", (
        ["ii", "compose", "--a", '{"level":2,"coefficients":{"0":5}}', "--b", '{"level":2,"coefficients":{}}'],
        ["ii", "compose", "--a", '{"coefficients":{}}', "--b", '{"level":2,"coefficients":{}}'],
        ["ii", "compose", "--a", "[1]", "--b", '{"level":2,"coefficients":{}}'],
        ["malcev", "exp", "--series", "[1]", "--level", "2"],
        ["malcev", "exp", "--series", '{"coefficients":{"0":1}}'],
        ["words", "shuffle", "--a", "5", "--b", '"0"'],
        ["hodge", "rmf", "--matrix", "[[1]]", "--weights", '{"0":5}'],
        ["ii", "eval", "--word", "1", "--path", '{"waypoints":5}'],
    ), ids=lambda argv: " ".join(argv[:2]))
    def test_wrong_shape_is_bad_json(self, capsys, argv):
        # each of these used to end in a traceback
        code, out = run(capsys, argv)
        assert code == EXIT_BADJSON
        assert set(out) == {"error"}

    def test_compose_level_cap(self, capsys):
        big = '{"level":13,"coefficients":{"":[1,0]}}'
        code, out = run(capsys, ["ii", "compose", "--a", big, "--b", big])
        assert code == EXIT_DOMAIN
        assert "level must be between" in out["error"]


# Values for every flag: malformed JSON of each shape the decoders read,
# numbers past every cap, and a few valid ones so that handlers run too.
_POOL = (
    "", "0", "1", "-1", "2", "0.5", "0.3+0.2i", "1/0", "1e400", "-1e400", "nan", "inf", "abc",
    "13", "30", "1000000000", "10000000000000000000000",
    "[]", "[1]", "[[1]]", '[["a"]]', "[[1,2],[3]]", "{}", "5", '"0"', '"01"', "null", "true", "{oops",
    '{"coefficients":{}}', '{"level":2,"coefficients":{"0":5}}',
    '{"level":2,"coefficients":{"0":[1]}}', '{"level":2,"coefficients":{"0":["a",1]}}',
    '{"level":2,"coefficients":{"01":[1e400,0]}}', '{"level":2.5,"coefficients":{}}',
    '{"level":1000000000,"coefficients":{}}', '{"level":2,"coefficients":{"":[1,0],"0":[1,0]}}',
    '{"level":2,"coefficients":{"0":"1/0"}}', '{"level":2,"coefficients":{"0":[1]}}',
    '{"0":5}', '{"0":[1,2]}', '{"0":"1/0"}', '{"0":"1e999"}', '{"0":"1","1":"1"}', '{"2":"1"}',
    '{"waypoints":5}', '{"waypoints":[{}]}', '{"waypoints":[[0.25,0],[0.5,0]]}',
    '{"waypoints":["x",0.5]}', '{"waypoints":[1e400,0.5]}',
    '{"loop":"gamma0","turns":"x"}', '{"loop":"gamma0","turns":1e300}',
    '{"loop":"gamma0","turns":[1]}', '{"loop":5}', '{"loop":"gamma1"}',
    '{"compose":[5]}', '{"compose":{}}', '{"tangential_start":5,"waypoints":[0.5]}',
    '{"tangential_start":{"at":null},"waypoints":[0.5]}',
    '{"tangential_start":{"at":0,"vector":"x"},"waypoints":[0.5]}',
    '{"loop":"gamma0","turn":3}', '{"compose":[{"loop":"gamma0"}],"waypoints":[0.125,0.25]}',
    '{"waypoints":[0.125,0.25],"loops":"gamma1"}', '{"turns":2}',
    '{"-4":[[1]]}', '{"x":[[1]]}', '{"0":[["1"]]}', '{"0":[[1,2]]}',
    '{"degree":5}', '{"degree":{"0":"x"}}', '{"d":{"0":5}}', '{"wedge":{"0,1":{"a":"1"}}}',
    "0^1000000", "0 1^-1", "0^-1 1", "2^3", "1,1", "1,1,1", "1,2,x", "1/0,0,0", "0,0,0",
    "1e308", "1+1e-310j", "1,0,1.2e-12", "0.0,0.0,0.0",
)
# the selftest has only its --level choice, and left out it runs for seconds
_COMMANDS = sorted((sub, flags) for sub, _h, _m, flags in COMMAND_TABLE.values() if sub != "selftest")
_ALLOWED_EXITS = {EXIT_OK, EXIT_DOMAIN, EXIT_NUMERIC, EXIT_USAGE, EXIT_BADJSON}


@st.composite
def _argv(draw):
    sub, flags = draw(st.sampled_from(_COMMANDS))
    argv = sub.split()
    for flag, _kwargs in flags:
        if draw(st.booleans()):
            argv += [f"{flag}={draw(st.sampled_from(_POOL))}"]
    return argv


class TestInputContract:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=_argv())
    def test_one_json_object_and_a_known_exit(self, capsys, argv):
        start = time.perf_counter()
        code = run_command(argv)
        elapsed = time.perf_counter() - start
        lines = capsys.readouterr().out.splitlines()
        assert code in _ALLOWED_EXITS
        assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict)
        assert elapsed < 5, f"{argv} took {elapsed:.1f} s"


class TestDeterminism:
    def test_byte_identical(self, capsys):
        argv = ["malcev", "bch", "--level", "2", "--a", '{"0":"1"}', "--b", '{"1":"1"}']
        run_command(argv)
        first = capsys.readouterr().out
        run_command(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_keys_sorted(self, capsys):
        _, out = run(capsys, ["words", "basis", "--r", "1"])
        raw = json.dumps(out, sort_keys=True, separators=(",", ":"))
        run_command(["words", "basis", "--r", "1"])
        assert capsys.readouterr().out.strip() == raw


class TestSubcommands:
    def test_words_shuffle(self, capsys):
        code, out = run(capsys, ["words", "shuffle", "--a", '"01"', "--b", '"0"'])
        assert code == EXIT_OK
        assert out["product"] == {"001": "2", "010": "1"}

    def test_words_deconcat(self, capsys):
        # retired: it listed the splittings of a word, and nothing read them
        code, out = run(capsys, ["words", "deconcat", "--word", "10"])
        assert code == EXIT_USAGE
        assert "unknown subcommand" in out["error"]

    def test_words_dbar_default_zero(self, capsys):
        # retired: both forms of the curve are closed and their wedges vanish,
        # so the bar differential of every word was zero
        code, out = run(capsys, ["words", "dbar", "--word", "01"])
        assert code == EXIT_USAGE
        assert "unknown subcommand" in out["error"]

    def test_words_dbar_symbolic(self, capsys):
        # retired with it: form tables of other symbols say nothing about the curve
        table = json.dumps({"degree": {"a": 1, "b": 1, "eta": 2}, "d": {"a": {"eta": "1"}}})
        code, out = run(capsys, ["words", "dbar", "--word", "a b", "--table", table])
        assert code == EXIT_USAGE
        assert "unknown subcommand" in out["error"]

    def test_ii_path(self, capsys):
        code, out = run(capsys, ["ii", "path", "--spec", '{"loop":"gamma1","turns":1}'])
        assert code == EXIT_OK
        assert out == {"segments": 3, "start": [0.125, 0.0], "end": [0.125, 0.0]}

    def test_ii_signature_and_compose(self, capsys):
        _, sig = run(capsys, ["ii", "signature", "--path",
                              '{"waypoints":[[0.25,0],[0.5,0]]}', "--level", "2"])
        assert abs(sig["coefficients"]["0"][0] - math.log(2)) < 1e-9
        text = json.dumps(sig)
        code, out = run(capsys, ["ii", "compose", "--a", text, "--b", text])
        assert code == EXIT_OK
        assert abs(out["coefficients"]["0"][0] - 2 * math.log(2)) < 1e-9

    def test_ii_regularized(self, capsys):
        code, out = run(capsys, ["ii", "regularized", "--x", "0.5"])
        assert abs(out["coefficients"]["10"][0]
                   - (math.pi ** 2 / 12 - math.log(2) ** 2 / 2)) < 1e-8

    def test_ii_monodromy(self, capsys):
        # the loop-word form moved to alb monodromy --word
        code, _ = run(capsys, ["ii", "monodromy", "--loop-word", "0"])
        assert code == EXIT_USAGE
        code, out = run(capsys, ["alb", "monodromy", "--word", "0"])
        assert code == EXIT_OK
        assert out["matrix"] == [[1, 0, 0], [0, 1, 1], [0, 0, 1]]

    def test_ii_monodromy_path_loop(self, capsys):
        code, out = run(capsys, ["alb", "monodromy", "--loop", '{"loop":"gamma1","turns":1}'])
        assert code == EXIT_OK
        _, word = run(capsys, ["alb", "monodromy", "--word", "1"])
        assert out["matrix"] == word["matrix"]

    def test_ii_monodromy_takes_no_base_point(self, capsys):
        code, _ = run(capsys, ["alb", "monodromy", "--word", "0", "--x", "0.5"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("flags", ([], ["--word", "0", "--loop", '{"loop":"gamma0","turns":1}'],
                                       ["--word", "", "--loop", ""]), ids=("neither", "both", "both-empty"))
    def test_alb_monodromy_takes_one_loop(self, capsys, flags):
        code, out = run(capsys, ["alb", "monodromy", *flags])
        assert code == EXIT_USAGE
        assert "exactly one of --word and --loop" in out["error"]

    def test_alb_monodromy_empty_word_is_the_identity(self, capsys):
        code, out = run(capsys, ["alb", "monodromy", "--word", ""])
        assert code == EXIT_OK
        assert out["matrix"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_long_compose_is_linear(self, capsys):
        # each junction used to re-validate every segment gathered so far:
        # 2000 parts took 8 s
        parts = [{"waypoints": [0.25, 0.5] if k % 2 == 0 else [0.5, 0.25]} for k in range(4000)]
        spec = json.dumps({"compose": parts})
        start = time.perf_counter()
        code, out = run(capsys, ["ii", "path", "--spec", spec])
        assert time.perf_counter() - start < 1
        assert code == EXIT_OK and out["segments"] == 4000

    def test_level_zero_is_level_zero(self, capsys):
        code, out = run(capsys, ["ii", "signature", "--path", '{"waypoints":[0.25,0.5]}',
                                 "--level", "0"])
        assert code == EXIT_OK and out == {"level": 0, "coefficients": {"": [1.0, 0.0]}}
        code, out = run(capsys, ["ii", "regularized", "--x", "0.5", "--level", "0"])
        assert code == EXIT_OK and out == {"level": 0, "coefficients": {"": [1.0, 0.0]}}
        code, _ = run(capsys, ["malcev", "coords", "--word", "0 1", "--level", "0"])
        assert code == EXIT_DOMAIN

    def test_level_defaults_to_two(self, capsys):
        _, out = run(capsys, ["ii", "regularized", "--x", "0.5"])
        assert out["level"] == 2
        _, out = run(capsys, ["malcev", "coords", "--word", "0 1 0^-1 1^-1"])
        assert out["level"] == 2

    def test_malcev_exp_log(self, capsys):
        _, out = run(capsys, ["malcev", "exp", "--series", '{"0":"1"}', "--level", "2"])
        assert out["series"]["coefficients"] == {"": "1", "0": "1", "00": "1/2"}
        _, back = run(capsys, ["malcev", "log", "--series", json.dumps(out["series"])])
        assert back["series"]["coefficients"] == {"0": "1"}

    def test_malcev_classify(self, capsys):
        _, out = run(capsys, ["malcev", "classify", "--series", '{"0":"1"}', "--level", "2"])
        assert out["class"] == "primitive"

    def test_malcev_hall_dims(self, capsys):
        _, out = run(capsys, ["malcev", "hall-dims", "--r", "2"])
        assert out["dims"] == [2, 1] and out["total"] == 3

    def test_malcev_coords(self, capsys):
        _, out = run(capsys, ["malcev", "coords", "--word", "0 1 0^-1 1^-1", "--level", "2"])
        assert out["coordinates"] == {"01": "1"}

    def test_hodge_filtration(self, capsys):
        _, out = run(capsys, ["hodge", "filtration", "--F", "1/2,-1/3,7"])
        assert out["coordinates"] == ["1/2", "-1/3", "7"]

    def test_hodge_transversal(self, capsys):
        _, out = run(capsys, ["hodge", "transversal", "--N", "1,0,0", "--F", "2,0,5"])
        assert out["transversal"] is True

    def test_hodge_rmf(self, capsys):
        weights = json.dumps({"-4": [["1", "0", "0"]],
                              "-2": [["1", "0", "0"], ["0", "1", "0"]],
                              "0": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]})
        matrix = json.dumps([["0", "0", "0"], ["0", "0", "1"], ["0", "0", "0"]])
        code, out = run(capsys, ["hodge", "rmf", "--matrix", matrix, "--weights", weights])
        assert code == EXIT_OK
        assert out["exists"] is True

    def test_hodge_chart(self, capsys):
        _, out = run(capsys, ["hodge", "chart", "--q", "0", "--beta", "0", "--lambda", "0.25"])
        assert out["kind"] == "orbit"

    def test_hodge_reduce(self, capsys):
        _, out = run(capsys, ["hodge", "reduce", "--coords", "3/2,-1/4,9"])
        assert out["reduced"] == ["1/2", "3/4", "1/2"]
        # c = -floor(9 + 1*(3/2)) = -10
        assert out["matrix"] == [[1, 1, -10], [0, 1, -1], [0, 0, 1]]

    def test_alb_map(self, capsys):
        code, out = run(capsys, ["alb", "map", "--x", "0.5"])
        assert code == EXIT_OK
        assert "alpha" in out and "reduction_matrix" in out

    def test_alb_map_alt(self, capsys):
        # retired: the inverse-matrix convention is a coordinate change,
        # tested exactly in test_albanese.TestAlternativeForm
        code, out = run(capsys, ["alb", "map-alt", "--x", "0.5"])
        assert code == EXIT_USAGE
        assert "unknown subcommand" in out["error"]

    def test_alb_monodromy(self, capsys):
        _, out = run(capsys, ["alb", "monodromy", "--word", "0 1 0^-1 1^-1"])
        assert out["matrix"] == [[1, 0, 1], [0, 1, 0], [0, 0, 1]]

    def test_alb_mhs_check(self, capsys):
        # retired: selftest criterion 10 checks the computed log M0 and log M1
        code, out = run(capsys, ["alb", "mhs-check"])
        assert code == EXIT_USAGE
        assert "unknown subcommand" in out["error"]


class TestCoverage:
    def test_every_operation_has_one_subcommand(self):
        expected_ops = {
            "word_basis", "shuffle_product",
            "make_path", "iterated_integral", "signature", "compose_signatures",
            "regularized_signature",
            "exp_trunc", "log_trunc", "classify_coproduct", "bch", "hall_dims",
            "malcev_coordinates",
            "hodge_filtration_from", "griffiths_transversal", "generates_nilpotent_orbit",
            "relative_monodromy_filtration", "boundary_chart_point", "reduce_mod_integral",
            "albanese_point", "extended_albanese", "monodromy_action", "selftest",
        }
        assert set(COMMAND_TABLE) == expected_ops
        subcommands = [entry[0] for entry in COMMAND_TABLE.values()]
        assert len(subcommands) == len(set(subcommands))

    def test_handlers_distinct(self):
        handlers = [entry[1] for entry in COMMAND_TABLE.values()]
        assert len(handlers) == len(set(handlers))


class TestBatch:
    def test_batch_order_preserved(self, capsys, monkeypatch):
        import io
        requests = [["words", "basis", "--r", "0"],
                    ["malcev", "hall-dims", "--r", "2"],
                    ["words", "basis", "--r", "1"]]
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(requests)))
        code, out = run(capsys, ["--json-in", "-"])
        assert code == EXIT_OK
        results = out["results"]
        assert results[0]["output"]["count"] == 1
        assert results[1]["output"]["total"] == 3
        assert results[2]["output"]["count"] == 3

    def test_batch_error_isolated(self, capsys, monkeypatch):
        import io
        requests = [["words", "basis", "--r", "1"], ["nope"], ["words", "basis", "--r", "0"]]
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(requests)))
        code, out = run(capsys, ["--json-in", "-"])
        assert code == EXIT_OK
        assert out["results"][1]["exit_code"] == EXIT_USAGE
        assert out["results"][2]["exit_code"] == EXIT_OK

    def test_batch_survives_a_float_orbit_at_the_tolerance(self, capsys, monkeypatch):
        import io
        # the float orbit is decided by the criterion; a numeric failure next
        # to it (a loop past the panel budget) stays isolated
        requests = [["words", "basis", "--r", "1"],
                    ["hodge", "orbit", "--N=1,0,1.2e-12", "--F=0.0,0.0,0.0"],
                    ["alb", "monodromy", "--loop", '{"loop":"gamma0","turns":100000}'],
                    ["hodge", "orbit", "--N", "1,0,1", "--F", "0,0,0"]]
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(requests)))
        code, out = run(capsys, ["--json-in", "-"])
        assert code == EXIT_OK
        assert [r["exit_code"] for r in out["results"]] == [EXIT_OK, EXIT_OK, EXIT_NUMERIC, EXIT_OK]
        assert out["results"][1]["output"]["generates"] is False
        assert out["results"][3]["output"]["generates"] is False

    def test_batch_input_checked(self, capsys, monkeypatch, tmp_path):
        import io
        code, out = run(capsys, ["--json-in", str(tmp_path / "missing.json")])
        assert code == EXIT_DOMAIN and "cannot read" in out["error"]
        for text in ('{"no_requests": []}', '[["words", "basis", "--r", "1"], 7]'):
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            code, _ = run(capsys, ["--json-in", "-"])
            assert code == EXIT_BADJSON

    def test_batch_malformed(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr(sys, "stdin", io.StringIO("{not json"))
        code, _ = run(capsys, ["--json-in", "-"])
        assert code == EXIT_BADJSON


FLOAT_FROZEN = json.loads((Path(__file__).parent / "float_frozen.json").read_text())


class TestFrozenFloatOutput:
    """Float CLI answers pinned byte for byte at the default tolerance.

    Each case is an argv, its exit code and its stdout, captured through
    ``alblab.cli`` while the tolerance was still a per-call setting:
    ``alb map`` near 0, near 1, on the cut beyond 1, in the bulk and with
    a loop prefix, ``alb extend``, ``alb monodromy`` by word and by loop,
    ``ii regularized`` at levels 2 and 4, ``ii signature`` of a polyline
    and of a compose of gamma0 and gamma1, and ``ii eval``.
    """

    @pytest.mark.parametrize("case", FLOAT_FROZEN["cases"],
                             ids=lambda c: " ".join(c["argv"]))
    def test_cli_output_is_unchanged(self, capsys, case):
        code = run_command(case["argv"])
        assert (code, capsys.readouterr().out.strip()) == (case["exit"], case["output"])


class TestEnvironment:
    def test_env_tolerance_override(self, capsys, monkeypatch):
        # retired: the quadrature tolerance is the constant integrals.ABS_TOL
        argv = ["alb", "map", "--x", "0.5"]
        assert run_command(argv) == EXIT_OK
        plain = capsys.readouterr().out
        monkeypatch.setenv("ALBLAB_TOL", "nan")
        assert run_command(argv) == EXIT_OK
        assert capsys.readouterr().out == plain

    def test_import_leaves_scipy_out(self):
        proc = _fresh_python("import alblab.cli, sys; print('scipy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("argv", [None] + [_ONE_VALID_CALL[op] for op in (
        "shuffle_product", "malcev_coordinates", "generates_nilpotent_orbit",
        "boundary_chart_point", "reduce_mod_integral", "hodge_filtration_from")],
        ids=lambda argv: " ".join(argv[:2]) if argv else "import")
    def test_exact_commands_leave_numpy_out(self, argv):
        # hodge filtration's flag here is a float one, decided without numpy too
        call = f"c.run_command({argv!r})" if argv else "0"
        proc = _fresh_python(f"import sys, alblab.cli as c; code = {call}; "
                             "print(code, 'numpy' in sys.modules, file=sys.stderr)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.split() == ["0", "False"]

    def test_batch_of_every_command_in_a_fresh_interpreter(self):
        # in-process tests have every module loaded already, so only a fresh
        # interpreter shows a handler whose module is not imported on dispatch
        assert set(_ONE_VALID_CALL) == set(COMMAND_TABLE) - {"selftest"}
        proc = _fresh_python("import alblab.cli as c; c.main()", "--json-in", "-",
                             stdin=json.dumps(list(_ONE_VALID_CALL.values())))
        assert proc.returncode == EXIT_OK, proc.stderr
        results = json.loads(proc.stdout)["results"]
        assert [r["exit_code"] for r in results] == [EXIT_OK] * len(_ONE_VALID_CALL)

    def test_console_script(self):
        proc = subprocess.run([sys.executable, "-m", "alblab.cli"],
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_USAGE
