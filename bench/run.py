"""alblab benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

    python3 bench/run.py --workload albanese --seed 1 --seconds 24 --trace 0

Run from the root of a checkout that holds src/alblab.  One closed-loop
caller drives alblab: an operation starts when the previous one returns.
The in-process workloads (albanese, deep_series, exact) run in one worker
process (bench/worker.py); the cli workload starts `python3 -m alblab.cli`
for every operation.  Every output is checked against bench/oracles.py,
which shares no code with alblab.  The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it records
the run: seed, source fingerprint, machine and a pure-Python reference loop.
See bench/README.md for the metrics, the inputs and the faults kept on purpose.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import inputs
from worker import done, reference_loop_ms

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
TIMEOUT = 170


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, stdin_text=None):
    """Run a child to its end; returns (wall seconds, exit code, stdout)."""
    t = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=_env(), input=stdin_text, capture_output=True,
                          text=True, timeout=TIMEOUT)
    return time.perf_counter() - t, proc.returncode, proc.stdout


def children_peak_rss_mb() -> float:
    """Largest peak resident memory of any child this process has waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def parse_cli(code, stdout):
    try:
        out = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return {"error": f"exit {code}, no JSON on stdout"}
    return out if code == 0 else {"error": f"exit {code}: {out}"}


def setup_probe(workload):
    _wall, code, out = spawn([sys.executable, str(BENCH / "worker.py"), workload, "--setup-only"])
    if code != 0:
        raise RuntimeError(f"worker set-up failed with exit {code}")
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


def with_argv(op):
    op = dict(op)
    op["argv"] = inputs.cli_argv(op)
    if op["op"] == "batch":
        op["stdin"] = inputs.batch_stdin(op)
    return op


# --- run information ---------------------------------------------------------------

def source_fingerprint():
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            sha = ref
    digest = hashlib.sha1()
    for path in sorted((SRC / "alblab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return sha, digest.hexdigest()


def machine():
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath", "sympy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "cpu": model, "machine": platform.machine(),
            "python": platform.python_version(), **versions}


# --- workloads -------------------------------------------------------------------

def run_worker(workload, seconds, trace, ops, fill=None):
    spec = {"workload": workload, "seconds": seconds, "trace": trace, "ops": ops, "fill": fill}
    _wall, code, out = spawn([sys.executable, str(BENCH / "worker.py")], json.dumps(spec))
    if code != 0:
        raise RuntimeError(f"worker exited {code}")
    return json.loads(out.strip().splitlines()[-1])


def run_cli_rounds(ops, seconds):
    """Whole rounds of the operations, each in a fresh `python3 -m alblab.cli`, until the time is spent."""
    times, outputs = [[] for _ in ops], [{} for _ in ops]
    refs = [reference_loop_ms()]
    start, rounds = time.perf_counter(), 0
    while not done(start, seconds, rounds):
        for i, op in enumerate(ops):
            wall, code, out = spawn([sys.executable, "-m", "alblab.cli", *op["argv"]], op.get("stdin"))
            times[i].append(wall * 1e3)
            key = json.dumps(parse_cli(code, out), sort_keys=True)
            outputs[i][key] = outputs[i].get(key, 0) + 1
        rounds += 1
        refs.append(reference_loop_ms())
    return {"op_times_ms": times, "outputs": outputs, "rounds": rounds,
            "timed_s": time.perf_counter() - start, "reference_loop_ms": refs}


def op_key(op) -> str:
    return json.dumps([op["op"], op.get("args"), op.get("requests")], sort_keys=True)


def median_times(ops, op_times) -> list:
    """Each distinct operation's median wall time over all its executions in the run."""
    samples: dict = {}
    for op, ts in zip(ops, op_times):
        samples.setdefault(op_key(op), []).extend(ts)
    return [statistics.median(ts) for ts in samples.values()]


def check_all(ops, outputs):
    """Check every distinct output of every operation; returns (failed count, unexpected)."""
    import oracles
    failed, unexpected = 0, []
    firsts = [json.loads(next(iter(outs))) if outs else None for outs in outputs]
    for i, (op, outs) in enumerate(zip(ops, outputs)):
        for text, count in outs.items():
            out = json.loads(text)
            bad = oracles.check_output(op, out)
            if not bad and "chen" in op:
                first, second = (firsts[j] for j in op["chen"])
                if "error" in first or "error" in second:
                    bad = "a part of the path failed"
                else:
                    bad = oracles.check_chen(op["args"]["level"], out, first, second)
            if bad:
                failed += count
                if "expect_fail" not in op:
                    unexpected.append(f"{op['op']} #{i}: {bad}")
    return failed, unexpected


def traced(workload, seed, seconds):
    ops = [with_argv(op) for op in inputs.generate(workload, seed)]
    fill = {w: [with_argv(op) for op in inputs.generate(w, seed)] for w in inputs.WORKLOADS}
    res = run_worker(workload, seconds, 1, ops, fill)
    res["metrics"] = {**res["layer_metrics"], **cli_layer_probes()}
    return res, ops


def untraced(workload, seed, seconds):
    """The timed rounds, the set-up samples and the peak memory of one run.

    The host's speed swings by half within seconds, so every operation is
    repeated in whole rounds spread over the run and counts at its median:
    a best time would read the host's rare fast moments, which some runs
    catch and others miss.
    The in-process workloads run in one worker; the cli workload starts
    the CLI for every operation.  Set-up is sampled in fresh processes.
    """
    ops = [with_argv(op) for op in inputs.generate(workload, seed)]
    if workload == "cli":
        res = run_cli_rounds(ops, seconds)
        peak_rss = children_peak_rss_mb()   # read before the set-up probes start
        setups = [setup_probe(workload) for _ in range(SETUP_SAMPLES)]
    else:
        res = run_worker(workload, seconds, 0, ops)
        peak_rss = res["peak_rss_mb"]
        setups = [res["setup_s"]] + [setup_probe(workload) for _ in range(SETUP_SAMPLES - 1)]
    per_op = median_times(ops, res["op_times_ms"])
    res["metrics"] = {"setup_s": statistics.median(setups),
                      "op_ms_p50": statistics.median(per_op),
                      "op_ms_p90": statistics.quantiles(per_op, n=10, method="inclusive")[8],
                      "ops_per_s": len(per_op) / sum(per_op) * 1e3,
                      "peak_rss_mb": peak_rss}
    return res, ops


def cli_layer_probes():
    """Fresh-interpreter import of alblab.cli, and the scipy.integrate share of it."""
    code = "import time; t = time.perf_counter(); import alblab.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(3):
        _w, rc, out = spawn([sys.executable, "-c", code])
        if rc != 0:
            raise RuntimeError("import alblab.cli failed")
        samples.append(float(out.strip()) * 1e3)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import alblab.cli"],
                          cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=TIMEOUT)
    scipy_us = 0
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "scipy.integrate":
            scipy_us = int(parts[1])
    return {"cli.import_ms": statistics.median(samples), "cli.import_scipy_ms": scipy_us / 1e3}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "alblab" / "__init__.py").is_file():
        print(f"no alblab sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sha, src_sha1 = source_fingerprint()
    run = traced if args.trace else untraced
    res, ops = run(args.workload, args.seed, args.seconds)

    failed, unexpected = check_all(ops, res["outputs"])
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    unexpected += [f"metric {name} was not measured" for name in units if name not in res["metrics"]]
    for line in unexpected:
        print("UNEXPECTED FAILURE:", line, file=sys.stderr)
    info = {"seed": args.seed, "workload": args.workload, "trace": args.trace, "git_sha": sha,
            "src_sha1": src_sha1, "machine": machine(),
            "reference_loop_ms": statistics.median(res["reference_loop_ms"]),
            "rounds": res.get("rounds"), "timed_s": res["timed_s"]}
    print("# run " + json.dumps(info, sort_keys=True))
    attempted = sum(len(ts) for ts in res["op_times_ms"])
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": res["metrics"][name], "unit": unit}
                          for name, unit in units.items() if name in res["metrics"]}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
