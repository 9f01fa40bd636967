"""Self-check of the benchmark's checker.

    python3 bench/selfcheck.py

For each workload it runs one round on seed 0 and confirms that the checker
passes every output except the faults kept on purpose.  Then it corrupts
one output and confirms that the checker counts exactly that operation as
failed:

* albanese: the sign of one monodromy entry flipped;
* deep_series: the Li_2 coefficient of a regularized signature moved by 1e-8;
* exact: one step of a relative monodromy filtration dropped;
* cli: the Li_2 coefficient of the `ii regularized` call moved by 1e-8.

Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import json
import sys

import inputs
import run


def flip_monodromy_sign(out):
    g = out["matrix"]
    i, j = next((i, j) for i in range(3) for j in range(i + 1, 3) if g[i][j])
    g[i][j] = -g[i][j]


def move_li2(out):
    out["coefficients"]["10"][0] += 1e-8


def drop_rmf_step(out):
    steps = sorted(out["filtration"], key=int)
    del out["filtration"][steps[0]]


CORRUPTIONS = {
    "albanese": ("alb_monodromy", flip_monodromy_sign),
    "deep_series": ("ii_regularized", move_li2),
    "exact": ("hodge_rmf", drop_rmf_step),
    "cli": ("ii_regularized", move_li2),
}


def one_round(workload):
    ops = [run.with_argv(op) for op in inputs.generate(workload, 0)]
    if workload == "cli":
        return ops, run.run_cli_rounds(ops, 0)["outputs"]
    return ops, run.run_worker(workload, 0, 0, ops)["outputs"]


def main() -> int:
    ok = True
    for workload, (kind, corrupt) in CORRUPTIONS.items():
        ops, outputs = one_round(workload)
        failed, unexpected = run.check_all(ops, outputs)
        if unexpected:
            print(f"{workload}: clean round already fails: {unexpected}")
            ok = False
            continue
        i = next(i for i, op in enumerate(ops) if op["op"] == kind and "expect_fail" not in op)
        (text, count), = outputs[i].items()
        out = json.loads(text)
        corrupt(out)
        outputs[i] = {json.dumps(out, sort_keys=True): count}
        failed_after, unexpected = run.check_all(ops, outputs)
        caught = failed_after == failed + count and len(unexpected) == 1
        ok &= caught
        print(f"{workload}: {kind} #{i} corrupted -> "
              f"{'caught: ' + unexpected[0] if caught else 'NOT CAUGHT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
