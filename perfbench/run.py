"""wkb-lab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload nll --seed 1 --seconds 60 --trace 0

Workloads: nll, train-sweep (see NOTES.md).  The run
is a closed loop with one caller in one single-threaded process: BLAS and
OpenMP are pinned to one thread before numpy is imported.  It prepares
cached inputs (the trained checkpoint, under ``.bench_cache/``), repeats
set-up and reports its median, then runs operations until ``--seconds`` have
passed and checks every output.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
package's layers (see tracing.py) and prints the per-layer metrics instead.
``--smoke`` shrinks every size for a quick self-test.  The last line of
standard output is the JSON result; a record with the environment, input
and output digests and every failure goes to ``.bench_cache/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".bench_cache")

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
# cli.load_config lets this override every seed; the benchmark owns its seeds
REMOVED_ENV = ("WKB_LAB_SEED",)
SETUP_REPEATS = 9

END_TO_END_UNITS = {"setup_s": "s", "throughput": "items/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "score.calls": "count", "score.rows": "count", "score.busy_s": "s",
    "score.us_per_row": "us", "score.small_calls": "count",
    "score.small_us_per_call": "us", "score.stencil_calls": "count",
    "score.stencil_s": "s", "score.dsm_loss_s": "s", "score.backprop_s": "s",
    "score.adam_s": "s",
    "ode.solves": "count", "ode.steps": "count", "ode.rhs_calls": "count",
    "ode.self_s": "s", "ode.self_us_per_step": "us", "ode.failed": "count",
    "likelihood.points": "count", "likelihood.inner_solves_per_point": "count",
    "likelihood.outer_rhs_per_point": "count",
    "likelihood.score_rows_per_point": "count", "likelihood.inner_self_s": "s",
    "likelihood.outer_self_s": "s", "likelihood.point_s_p50": "s",
    "likelihood.point_s_max": "s", "likelihood.point_s_trained": "s",
    "likelihood.point_s_oracle": "s",
    "likelihood.oracle_corr_relerr_max": "ratio",
    "likelihood.oracle_ref_halving_max": "ratio",
    "likelihood.oracle_bound_covered_frac": "ratio",
    "error_est.calls": "count", "error_est.busy_s": "s", "schedule.calls": "count",
    "train.steps": "count", "train.self_s": "s",
    "sampler.em_sweep_s": "s", "sampler.self_s": "s",
    "wasserstein.calls": "count", "wasserstein.assign_s": "s",
    "wasserstein.self_s": "s",
    "data.gen_s": "s", "trace.overhead_frac": "ratio", "ops.failed_frac": "ratio",
}
# deterministic per-operation counts compared across repeats and runs
DETERMINISTIC = ("score.rows", "ode.steps", "ode.solves",
                 "likelihood.inner_solves", "likelihood.outer_rhs")


@dataclass
class OpRecord:
    index: int
    seconds: float
    out: object = None      # numpy array of outputs, None if the op failed
    error: str | None = None
    tb: str | None = None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["nll", "train-sweep"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    return p.parse_args(argv)


def tree_digest(pattern: str) -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(pattern)):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def environment(removed: list[str]) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "removed_env": removed,
        "git_commit": git_commit(),
        "src_sha256": tree_digest(os.path.join(SRC, "wkb_lab", "*.py")),
        "bench_sha256": tree_digest(os.path.join(HERE, "*.py")),
    }


def run_ops(wl, seconds: float, tracer=None, between=None) -> list[OpRecord]:
    """Closed loop: the next operation starts when the previous one ends.

    ``between()`` runs after each group of operations, outside their timing.
    The loop stops at the group boundary nearest to ``seconds``.
    """
    import numpy as np

    records = []
    t0 = perf_counter()
    i = 0
    while True:
        if tracer is not None:
            tracer.current_op = i
        start = perf_counter()
        try:
            out = np.asarray(wl.op(i, tracer), dtype=float)
            records.append(OpRecord(i, perf_counter() - start, out=out))
        except Exception as exc:  # one bad operation must not end the run
            records.append(OpRecord(i, perf_counter() - start,
                                    error=f"{type(exc).__name__}: {exc}",
                                    tb=traceback.format_exc(limit=-4)))
        i += 1
        if i % wl.ops_per_group == 0:
            if between is not None:
                between()
            elapsed = perf_counter() - t0
            if elapsed * (1.0 + 0.5 * wl.ops_per_group / i) >= seconds:
                break
    if tracer is not None:
        tracer.current_op = -1
    return records


def timed_op(wl, i: int, tracer=None):
    import numpy as np

    start = perf_counter()
    out = np.asarray(wl.op(i, tracer), dtype=float)
    return out, perf_counter() - start


class Ledger:
    """Per-operation output digests and counts of earlier runs of the same
    code, workload, seed and sizes; any difference is an error, not noise."""

    def __init__(self, key: str):
        self.path = os.path.join(CACHE, "ledger.json")
        self.key = key
        try:
            with open(self.path, encoding="utf-8") as fh:
                self.all = json.load(fh)
        except (OSError, ValueError):
            self.all = {}
        self.entry = self.all.setdefault(key, {"inputs": {}, "ops": {}})

    def compare(self, inputs: dict, ops: dict) -> list[str]:
        bad = []
        for name, val in inputs.items():
            old = self.entry["inputs"].setdefault(name, val)
            if old != val:
                bad.append(f"input {name} changed between runs")
        for i, rec in ops.items():
            old = self.entry["ops"].setdefault(str(i), {})
            for field, val in rec.items():
                if field in old and old[field] != val:
                    bad.append(f"op {i}: {field} differs from an earlier run "
                               f"({old[field]} vs {val})")
                old.setdefault(field, val)
        return bad

    def save(self) -> None:
        tmp = f"{self.path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.all, fh)
        os.replace(tmp, self.path)


def main(argv=None) -> int:
    args = parse_args(argv)
    removed = [k for k in REMOVED_ENV if os.environ.pop(k, None) is not None]
    os.environ.update(PINNED_ENV)  # before numpy is first imported
    if not os.path.isfile(os.path.join(SRC, "wkb_lab", "__init__.py")):
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import wkb_lab

    if os.path.dirname(os.path.abspath(wkb_lab.__file__)) != os.path.join(SRC, "wkb_lab"):
        print(f"error: imported wkb_lab from {wkb_lab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    from workloads import FULL, SMOKE, WORKLOADS, digest

    env = environment(removed)
    tag = "smoke" if args.smoke else "full"
    cache = os.path.join(CACHE, tag)
    os.makedirs(cache, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, SMOKE if args.smoke else FULL, cache)
    wl.prepare()

    setup_s, gen_s = [], []

    def setup_once():
        start = perf_counter()
        wl.setup()
        setup_s.append(perf_counter() - start)
        gen_s.append(wl.data_gen_s)

    if args.trace:
        for _ in range(SETUP_REPEATS):
            setup_once()
        tracer = tracing.Tracer()
        with tracing.patched(tracer):
            records = run_ops(wl, args.seconds, tracer)
    else:
        # set-up repeats alternate with the operations, so that their median
        # samples the machine over the whole run as the operations do
        setup_once()
        tracer = None
        records = run_ops(wl, args.seconds, between=setup_once)

    errors = []
    for rec in records:
        if rec.out is not None:
            bad = wl.check(rec.index, rec.out)
            if bad:
                errors.append(f"op {rec.index}: {bad}")
    n_failed = sum(rec.out is None for rec in records)
    op_log = {rec.index: {"out": digest(rec.out)} for rec in records if rec.out is not None}

    if args.trace:
        metrics, repeat_errors = traced_metrics(wl, tracer, records, op_log)
        errors += repeat_errors
        metrics["data.gen_s"] = statistics.median(gen_s)
        metrics["ops.failed_frac"] = n_failed / len(records)
        # the oracle's accuracy figures read 0 on the other workloads
        summary = {k: 0.0 for k in PER_LAYER_UNITS if k.startswith("likelihood.oracle_")}
        summary.update(wl.summary())
        metrics.update(summary)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "throughput": wl.items_per_op * len(records) / sum(r.seconds for r in records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        summary = wl.summary()
        units = END_TO_END_UNITS

    key = f"{args.workload}|seed={args.seed}|{tag}|src={env['src_sha256'][:16]}" \
          f"|bench={env['bench_sha256'][:16]}"
    ledger = Ledger(key)
    errors += ledger.compare(wl.inputs, op_log)
    ledger.save()

    correct = not errors
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": n_failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    write_record(args, env, wl, records, setup_s, summary, errors, result,
                 tracer)
    report(args, env, wl, records, summary, errors, result)
    print(json.dumps(result))
    return 0


def traced_metrics(wl, tracer, records, op_log):
    """Per-layer metrics, plus the repeat of one operation untraced and
    traced: it gives the tracing overhead and must reproduce the outputs
    and the deterministic counts exactly."""
    import tracing
    from workloads import digest

    table = tracing.SpanTable(tracer)
    metrics = tracing.layer_metrics(table)
    counts = table.counts_by_op(len(records))
    for rec in records:
        if rec.out is not None:
            op_log[rec.index]["counts"] = {k: int(counts[k][rec.index])
                                           for k in DETERMINISTIC}
    errors = []
    if table.self_negative_min() < -1e-9:
        errors.append(f"negative span self time {table.self_negative_min():.3e}")
    ok = [rec.index for rec in records if rec.out is not None]
    metrics["trace.overhead_frac"] = 0.0
    if not ok:
        return metrics, errors
    i = ok[0]
    again = tracing.Tracer()
    again.current_op = i
    try:
        out_plain, t_plain = timed_op(wl, i)
        bad_plain = wl.check(i, out_plain)
        with tracing.patched(again):
            out_traced, t_traced = timed_op(wl, i, again)
        bad_traced = wl.check(i, out_traced)
    except Exception as exc:  # the first run of this operation succeeded
        errors.append(f"op {i}: repeat raised {type(exc).__name__}: {exc}")
        return metrics, errors
    metrics["trace.overhead_frac"] = t_traced / t_plain - 1.0
    for label, out, bad in (("untraced", out_plain, bad_plain),
                            ("traced", out_traced, bad_traced)):
        if bad:
            errors.append(f"op {i}: {label} repeat: {bad}")
        if digest(out) != op_log[i]["out"]:
            errors.append(f"op {i}: {label} repeat changed the outputs")
    recount = tracing.SpanTable(again).counts_by_op(i + 1)
    for k in DETERMINISTIC:
        if int(recount[k][i]) != op_log[i]["counts"][k]:
            errors.append(f"op {i}: {k} {op_log[i]['counts'][k]} on the first run, "
                          f"{int(recount[k][i])} on the repeat")
    return metrics, errors


def write_record(args, env, wl, records, setup_s, summary, errors, result,
                 tracer) -> None:
    from workloads import digest

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + \
           ("-smoke" if args.smoke else "")
    os.makedirs(os.path.join(CACHE, "results"), exist_ok=True)
    record = {
        "args": vars(args), "environment": env, "sizes": dataclasses.asdict(wl.sizes),
        "inputs": wl.inputs, "setup_s": setup_s,
        "item": wl.item, "items_per_op": wl.items_per_op,
        "ops": [{"index": r.index, "seconds": r.seconds,
                 "out": None if r.out is None else [float(v) for v in r.out[:8]],
                 "out_sha256": None if r.out is None else digest(r.out),
                 "error": r.error, "traceback": r.tb} for r in records],
        "summary": summary, "errors": errors, "result": result,
    }
    path = os.path.join(CACHE, "results", stem + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        os.makedirs(os.path.join(CACHE, "spans"), exist_ok=True)
        tracer.save(os.path.join(CACHE, "spans", stem + ".npz"))


def report(args, env, wl, records, summary, errors, result) -> None:
    """Human-readable lines on standard error."""
    err = sys.stderr
    print(f"environment: {json.dumps(env)}", file=err)
    n_ok = sum(r.out is not None for r in records)
    print(f"{args.workload} seed={args.seed}: {len(records)} ops "
          f"({n_ok} ok) taking {sum(r.seconds for r in records):.2f}s, "
          f"inputs {wl.inputs}", file=err)
    for r in records:
        if r.error:
            print(f"  failed op {r.index} after {r.seconds:.2f}s: {r.error}", file=err)
    for k, v in summary.items():
        print(f"  {k} = {v:.6g}", file=err)
    for e in errors[:10]:
        print(f"  ERROR {e}", file=err)
    if len(errors) > 10:
        print(f"  ... {len(errors) - 10} more errors", file=err)
    for k, m in result["metrics"].items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}", file=err)


if __name__ == "__main__":
    sys.exit(main())
