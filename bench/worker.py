"""The process that runs alblab for the benchmark.

    python3 bench/worker.py <workload> --setup-only
    python3 bench/worker.py < spec.json

With --setup-only it imports alblab, warms the caches the workload uses,
prints {"setup_s": ...} and exits; run.py starts it several times to take
a median.  Otherwise it reads a spec {"workload", "seconds", "trace", "ops",
"fill"} from stdin, runs whole rounds of the operations in a closed loop
(the next starts when the previous returns) until the time is spent, and
prints one JSON line with the times, the distinct outputs of every
operation and its peak memory.  The outputs are checked by run.py, in
another process, so the reference computations cost this one nothing.

With trace 1, rounds alternate between untraced and traced; a traced round
wraps the public functions listed in LAYER_FUNCS and records, per call,
its time and whether it raised DomainError or ConvergenceError.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

LAYERS = ("cli", "paths", "integrals", "series", "words", "malcev", "linalg",
          "hodge", "albanese", "acceptance")

# metric -> (module, function names, unit scale, workload whose round calls it)
LAYER_FUNCS = {
    "paths.canonical_reach_us": ("paths", ("canonical_reach",), 1e6, "albanese"),
    "paths.loop_from_group_word_us": ("paths", ("loop_from_group_word",), 1e6, "albanese"),
    "paths.make_path_us": ("paths", ("make_path",), 1e6, "deep_series"),
    "integrals.transport_ms": ("integrals", ("transport",), 1e3, "deep_series"),
    "integrals.regularized_signature_ms": ("integrals", ("regularized_signature",), 1e3, "deep_series"),
    "integrals.regularized_loop_transport_ms": ("integrals", ("regularized_loop_transport",), 1e3,
                                                "albanese"),
    "integrals.signature_ms": ("integrals", ("signature",), 1e3, "deep_series"),
    "integrals.iterated_integral_ms": ("integrals", ("iterated_integral",), 1e3, "deep_series"),
    "series.mul_ms": ("series", ("concat_mul",), 1e3, "deep_series"),
    "series.inverse_ms": ("series", ("TruncatedSeries.inverse",), 1e3, "albanese"),
    "words.shuffle_product_us": ("words", ("shuffle_product",), 1e6, "exact"),
    "malcev.exp_log_ms": ("malcev", ("exp_trunc", "log_trunc"), 1e3, "exact"),
    "malcev.bch_ms": ("malcev", ("bch",), 1e3, "exact"),
    "malcev.classify_coproduct_ms": ("malcev", ("classify_coproduct",), 1e3, "exact"),
    "malcev.malcev_coordinates_ms": ("malcev", ("malcev_coordinates",), 1e3, "exact"),
    "linalg.rref_us": ("linalg", ("rref",), 1e6, "exact"),
    "linalg.intersect_us": ("linalg", ("intersect",), 1e6, "exact"),
    "linalg.solve_in_span_us": ("linalg", ("solve_in_span",), 1e6, "exact"),
    "hodge.relative_monodromy_filtration_ms": ("hodge", ("relative_monodromy_filtration",), 1e3,
                                               "exact"),
    "hodge.verify_relative_monodromy_ms": ("hodge", ("verify_relative_monodromy",), 1e3, "exact"),
    "hodge.generates_nilpotent_orbit_us": ("hodge", ("generates_nilpotent_orbit",), 1e6, "exact"),
    "hodge.reduce_mod_integral_us": ("hodge", ("reduce_mod_integral",), 1e6, "albanese"),
    "albanese.albanese_point_ms": ("albanese", ("albanese_point",), 1e3, "albanese"),
    "albanese.extended_albanese_ms": ("albanese", ("extended_albanese",), 1e3, "albanese"),
    "albanese.monodromy_action_ms": ("albanese", ("monodromy_action",), 1e3, "albanese"),
    "acceptance.rmf_brute_force_ms": ("acceptance", ("rmf_brute_force",), 1e3, "exact"),
    "cli.run_command_ms": ("cli", ("run_command",), 1e3, "cli"),
    "cli.batch_ms": ("cli", ("run_command",), 1e3, "cli"),
}
# criterion names in the selftest report -> metric
SELFTEST_CRITERIA = {
    "relative monodromy filtration": "acceptance.rmf_s",
    "nilpotent-orbit criterion": "acceptance.orbit_criterion_s",
    "shuffle suite": "acceptance.shuffle_suite_s",
    "composition suite": "acceptance.composition_suite_s",
}
MODULES = ("albanese", "integrals", "paths", "series", "words", "malcev", "linalg",
           "hodge", "acceptance", "cli")


def _import():
    import importlib
    return {name: importlib.import_module(f"alblab.{name}") for name in MODULES}


def _cjson(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _cx(pair) -> complex:
    return complex(pair[0], pair[1])


# --- operations ------------------------------------------------------------------

def _run_cli(m, argv, stdin_text=None):
    """alblab's run_command in this process; returns (exit code, parsed stdout)."""
    buf = io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(buf):
            code = m["cli"].run_command(argv)
    finally:
        sys.stdin = old_stdin
    return code, buf.getvalue()


def _cli_op(m, argv, stdin_text):
    def render(res):
        code, text = res
        out = json.loads(text.strip().splitlines()[-1])
        return out if code == 0 else {"error": f"exit {code}: {out}"}
    return (lambda: _run_cli(m, argv, stdin_text)), render


def build(m, op, via_cli=False):
    """(call, render): call() does the work that is timed, render() makes its JSON."""
    kind, a = op["op"], op.get("args", {})
    if via_cli or kind in ("batch", "selftest"):
        return _cli_op(m, op["argv"], op.get("stdin"))
    alb, itg, mal, hod = m["albanese"], m["integrals"], m["malcev"], m["hodge"]
    if kind == "alb_map":
        x = _cx(a["x"])
        return (lambda: alb.albanese_point(x)), (lambda p: p.to_json())
    if kind == "alb_extend":
        x = _cx(a["x"])
        return ((lambda: alb.extended_albanese(x)),
                (lambda r: {"q": _cjson(r[0]), "beta": _cjson(r[1]), "lambda": _cjson(r[2])}))
    if kind == "alb_monodromy":
        return (lambda: alb.monodromy_action(a["word"])), (lambda g: {"matrix": g.tolist()})
    if kind == "ii_signature":
        return (lambda: itg.signature(a["path"], a["level"])), (lambda s: s.to_json())
    if kind == "ii_regularized":
        x = _cx(a["x"])
        return (lambda: itg.regularized_signature(x, a["level"])), (lambda s: s.to_json())
    if kind == "ii_eval":
        return ((lambda: itg.iterated_integral(a["word"], a["path"], with_error=True)),
                (lambda r: {"word": a["word"], "value": _cjson(r[0]), "abs_err_est": r[1]}))
    series_json = lambda s: {"series": s.to_json()}  # noqa: E731
    if kind == "malcev_coords":
        return ((lambda: mal.malcev_coordinates(a["word"], a["level"])),
                (lambda c: {"level": a["level"], "coordinates": {w: str(v) for w, v in c.items()}}))
    if kind in ("malcev_exp", "malcev_log", "malcev_classify"):
        s = mal.ExactSeries(a["level"], {w: Fraction(c) for w, c in a["series"].items()})
        if kind == "malcev_classify":
            return (lambda: mal.classify_coproduct(s)), (lambda c: {"class": c})
        name = "exp_trunc" if kind == "malcev_exp" else "log_trunc"
        return (lambda: getattr(mal, name)(s)), series_json
    if kind == "malcev_bch":
        sa = mal.ExactSeries(a["level"], {w: Fraction(c) for w, c in a["a"].items()})
        sb = mal.ExactSeries(a["level"], {w: Fraction(c) for w, c in a["b"].items()})
        return (lambda: mal.bch(sa, sb)), series_json
    if kind == "malcev_hall_dims":
        return (lambda: mal.hall_dims(a["r"])), (lambda d: {"dims": d, "total": sum(d)})
    if kind == "words_shuffle":
        wds = m["words"]
        ea, eb = wds.ShuffleElement.from_json(a["a"]), wds.ShuffleElement.from_json(a["b"])
        return (lambda: wds.shuffle_product(ea, eb)), (lambda p: {"product": p.to_json()})
    if kind == "hodge_orbit":
        n = hod.NilpotentEndo(*(Fraction(v) for v in a["N"]))
        f = hod.hodge_filtration_from(*(Fraction(v) for v in a["F"]))

        def render_orbit(r):
            return {"generates": r.generates, "criterion_defect": str(r.criterion_defect),
                    "admissible": r.admissible, "reason": r.reason}
        return (lambda: hod.generates_nilpotent_orbit(n, f)), render_orbit
    if kind in ("hodge_rmf", "rmf_brute"):
        mat = [[Fraction(v) for v in row] for row in a["matrix"]]
        w = hod.WeightFiltrationGeneric.from_dict(
            {int(k): [[Fraction(v) for v in vec] for vec in vs] for k, vs in a["weights"].items()},
            len(mat))
        if kind == "hodge_rmf":
            return ((lambda: hod.relative_monodromy_filtration(mat, w)),
                    (lambda r: {"exists": False} if r is None
                     else {"exists": True, "filtration": r.to_json()}))
        return ((lambda: m["acceptance"].rmf_brute_force(mat, w)),
                (lambda sols: {"solutions": [s.to_json() for s in sols]}))
    raise ValueError(f"unknown operation {kind!r}")


# --- tracing ---------------------------------------------------------------------

class Tracer:
    """Wraps alblab's public functions; aggregates time, calls and failures per metric and layer."""

    def __init__(self, m):
        self.m = m
        self.errors = (m["paths"].DomainError, m["integrals"].ConvergenceError)
        self.patches = []   # (owner, attribute, original)

    def new_stats(self):
        return {"fn": {k: [0, 0.0] for k in LAYER_FUNCS},
                "layer": {k: [0, 0] for k in LAYERS}}

    def _wrap(self, stats, module, name, orig):
        keys = [k for k, spec in LAYER_FUNCS.items() if spec[0] == module and name in spec[1]]
        depth = {"fn": 0}
        layer_depth = self.layer_depth

        def wrapper(*args, **kwargs):
            outer_fn = depth["fn"] == 0
            outer_layer = layer_depth[module] == 0
            depth["fn"] += 1
            layer_depth[module] += 1
            failed = False
            t = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            except self.errors:
                failed = True
                raise
            finally:
                dt = time.perf_counter() - t
                depth["fn"] -= 1
                layer_depth[module] -= 1
                if outer_fn:
                    key = keys[0]
                    if len(keys) > 1:   # run_command: a batch or a single call
                        key = "cli.batch_ms" if args and args[0][:1] == ["--json-in"] else keys[0]
                    stats["fn"][key][0] += 1
                    stats["fn"][key][1] += dt
                if outer_layer:
                    stats["layer"][module][0] += 1
                    stats["layer"][module][1] += failed
        return wrapper

    def install(self, stats):
        self.layer_depth = {k: 0 for k in LAYERS}
        targets = dict.fromkeys((module, name) for module, names, _s, _h in LAYER_FUNCS.values()
                                for name in names)
        for module, name in targets:
            owner, attr = self.m[module], name
            if "." in name:   # a method: patch it on its class
                cls_name, attr = name.split(".")
                owner = getattr(owner, cls_name, None)
            orig = getattr(owner, attr, None)
            if orig is None:
                print(f"trace: {module}.{name} not found", file=sys.stderr)
                continue
            wrapper = self._wrap(stats, module, name, orig)
            # every alblab namespace that bound the function by name
            owners = [owner] if "." in name else [
                mod for key, mod in list(sys.modules.items()) if key.split(".")[0] == "alblab"]
            for target in owners:
                for key, val in list(vars(target).items()):
                    if val is orig:
                        self.patches.append((target, key, orig))
                        setattr(target, key, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self.patches):
            setattr(owner, attr, orig)
        self.patches = []


# --- set-up and the timed loop -----------------------------------------------------

def reference_loop_ms() -> float:
    """One timing of a fixed pure-Python loop: the host's speed at this moment."""
    t = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t) * 1e3


def done(start, seconds, rounds, min_rounds=1) -> bool:
    """Whole rounds stop within half a round of the deadline, so a run's length hardly moves."""
    elapsed = time.perf_counter() - start
    return rounds >= min_rounds and elapsed >= seconds - elapsed / rounds / 2


def warm_up(m, workload):
    if workload == "albanese":
        m["albanese"].albanese_point(0.5 + 0.5j)
        m["albanese"].extended_albanese(0.25 + 0.1j)
        m["albanese"].monodromy_action("0")
    elif workload == "deep_series":
        spec = {"waypoints": [[0.3, 0.3], [0.4, 0.3]]}
        for level in (2, 4, 6, 7, 8):
            m["integrals"].signature(spec, level)
        m["integrals"].iterated_integral("01", spec)
        m["integrals"].regularized_signature(0.5, 2)
    elif workload == "exact":
        mal, hod = m["malcev"], m["hodge"]
        mal.malcev_coordinates("0 1", 6)
        mal.classify_coproduct(mal.ExactSeries(6, {"0": 1}))
        hod.relative_monodromy_filtration(hod.NilpotentEndo(1, 0, 0), hod.LAMBDA.weights)
    else:
        _run_cli(m, ["words", "basis", "--r", "1"])


def run_round(ops, tracer=None, stats=None, times=None, outputs=None, last=None):
    if tracer is not None:
        tracer.install(stats)
    try:
        for i, (call, render) in enumerate(ops):
            t = time.perf_counter()
            try:
                res = call()
                ok = True
            except Exception as exc:  # every failure is recorded and checked, none stops the run
                res, ok = f"{type(exc).__name__}: {exc}", False
            dt = time.perf_counter() - t
            if times is not None:
                times[i].append(dt * 1e3)
            out = render(res) if ok else {"error": res}
            if outputs is not None:
                key = json.dumps(out, sort_keys=True)
                outputs[i][key] = outputs[i].get(key, 0) + 1
            if last is not None:
                last[i] = out
    finally:
        if tracer is not None:
            tracer.uninstall()


def layer_metrics(stats_by_source, workload, selftest_report, traced_rounds):
    out = {}
    for key, (_module, _names, scale, home) in LAYER_FUNCS.items():
        calls, total = stats_by_source[workload]["fn"][key]
        if not calls and home in stats_by_source:
            calls, total = stats_by_source[home]["fn"][key]
        if calls:
            out[key] = total / calls * scale
    for layer in LAYERS:   # per traced round, so that they do not depend on the run's length
        calls, failures = stats_by_source[workload]["layer"][layer]
        out[f"{layer}.calls"] = calls / traced_rounds
        out[f"{layer}.failures"] = failures / traced_rounds
    for crit in (selftest_report or {}).get("criteria", []):
        if crit["name"] in SELFTEST_CRITERIA:
            out[SELFTEST_CRITERIA[crit["name"]]] = crit["elapsed_seconds"]
    return out


def main():
    argv = sys.argv[1:]
    if "--setup-only" in argv:
        m = _import()
        warm_up(m, argv[0])
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return
    spec = json.loads(sys.stdin.read())
    workload = spec["workload"]
    m = _import()
    warm_up(m, workload)
    setup_s = time.perf_counter() - _T0

    via_cli = workload == "cli"
    ops = [build(m, op, via_cli) for op in spec["ops"]]
    times, outputs = [[] for _ in ops], [{} for _ in ops]
    tracer = Tracer(m) if spec["trace"] else None
    stats = {workload: tracer.new_stats()} if tracer else None
    round_s = {0: [], 1: []}
    last = {}   # outputs of the latest traced round
    refs = [reference_loop_ms()]   # the host's speed before and after every round
    start = time.perf_counter()
    rounds = 0
    while not done(start, spec["seconds"], rounds, 2 if tracer else 1):
        traced = bool(tracer) and rounds % 2 == 1
        t = time.perf_counter()
        run_round(ops, tracer if traced else None, stats[workload] if traced else None,
                  times, outputs, last if traced else None)
        round_s[int(traced)].append(time.perf_counter() - t)
        rounds += 1
        refs.append(reference_loop_ms())
    timed_s = time.perf_counter() - start
    result = {"setup_s": setup_s, "timed_s": timed_s, "rounds": rounds, "op_times_ms": times,
              "outputs": outputs, "reference_loop_ms": refs,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        missing = [k for k, v in LAYER_FUNCS.items() if not stats[workload]["fn"][k][0]]
        for home in dict.fromkeys(LAYER_FUNCS[k][3] for k in missing):
            if home == workload:
                continue
            stats[home] = tracer.new_stats()
            fill = [build(m, op, home == "cli") for op in spec["fill"][home]]
            fill_last = {}
            run_round(fill, tracer, stats[home], last=fill_last)
            if home == "cli":
                last = fill_last
        # the selftest is the last operation of a cli round
        metrics = layer_metrics(stats, workload, last[max(last)], len(round_s[1]))
        untraced = sum(round_s[0]) / len(round_s[0])
        traced = sum(round_s[1]) / len(round_s[1])
        metrics["trace.overhead_pct"] = (traced / untraced - 1) * 100
        result["layer_metrics"] = metrics
    print(json.dumps(result))


if __name__ == "__main__":
    main()
