"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

``--workload`` is ``train``, ``selfchat``, ``corpus`` or ``all`` (each of
the three in its own process, in turn).  The run builds its inputs from
``--seed``, sets up, warms up, then measures passes for ``--seconds``,
timing one more set-up after each untraced pass.  With ``--trace 1`` it
spends half of that time untraced and half traced, and reports per-layer
metrics and the tracing overhead.

Stdout ends with a report line (environment, the workload's named metrics,
pass counts) and then the result line
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train", "selfchat", "corpus")
# The host runs in bursts, tens of seconds long, in which the same code runs
# up to 1.7 times faster than at its usual pace; a whole run can fall inside
# one.  A rate is therefore this quantile of the per-pass rates: the rate the
# program keeps up in nine passes of ten, which the bursts do not move.
RATE_QUANTILE = 0.1
# One BLAS thread: at the default model size train() runs slower with two
# (6.9 s vs 5.8 s per 100 steps on a 2-core box), and all load comes from
# this one process.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None,
    }


def timed(fn) -> float:
    start = perf_counter()
    fn()
    return perf_counter() - start


def measure(workload, seconds: float, min_passes: int, first_index: int, setup_samples=None) -> list:
    """Runs passes until ``min_passes`` are done and their timed parts add up
    to ``seconds``.  Given ``setup_samples``, times one more set-up after each
    pass, so that the samples spread over the phase as the passes do and the
    host's bursts reach both alike."""
    passes = []
    while len(passes) < min_passes or sum(p.seconds for p in passes) < seconds:
        passes.append(workload.run_pass(first_index + len(passes)))
        if setup_samples is not None:
            setup_samples.append(timed(workload.setup))
    return passes


def rates(passes) -> dict[str, float]:
    """The ``RATE_QUANTILE`` quantile of the per-pass rates."""
    import numpy as np

    return {
        "items_per_s": float(np.quantile([p.items / p.seconds for p in passes], RATE_QUANTILE)),
        "tokens_per_s": float(np.quantile([p.tokens / p.seconds for p in passes], RATE_QUANTILE)),
    }


def overall_rates(passes) -> dict[str, float]:
    """Work of all passes over their timed seconds, for the report."""
    seconds = sum(p.seconds for p in passes)
    return {
        "items_per_s": sum(p.items for p in passes) / seconds,
        "tokens_per_s": sum(p.tokens for p in passes) / seconds,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (report, result) for one workload run in this process."""
    import resource

    from spans import Tracer
    from workloads import END_TO_END, PER_LAYER, WORKLOADS, install_tracing, per_layer_metrics

    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    workload = WORKLOADS[name](seed, workdir)
    start = perf_counter()
    workload.fixture()
    fixture_s = perf_counter() - start
    setup_samples = [timed(workload.setup)]
    workload.warm_up()

    # a traced run splits its time between an untraced and a traced phase
    phase_seconds = seconds / 2 if trace else seconds
    passes = measure(workload, phase_seconds, workload.min_passes, 0, setup_samples)
    untraced = rates(passes)
    traced_passes = []
    if trace:
        tracer = Tracer()
        install_tracing(tracer)
        try:
            traced_passes = measure(workload, phase_seconds, 1, len(passes))
        finally:
            tracer.uninstall()
        tracer.write(workdir / f"spans-{name}.jsonl")
    extra_failed, named = workload.finish(**untraced)

    every = passes + traced_passes
    attempted = sum(p.ops for p in every)
    failed = min(attempted, sum(p.failed for p in every) + extra_failed)
    end_to_end = {
        **untraced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_samples),
    }
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "environment": environment(),
        "named_metrics": {
            **{k: {"value": v, "unit": unit} for k, (v, unit) in named.items()},
            "failed_share": {"value": failed / attempted, "unit": "share"},
        },
        "untraced_passes": len(passes),
        "untraced_overall_rates": overall_rates(passes),
        "fixture_s": fixture_s,
        "setup_repeats": len(setup_samples),
    }
    if trace:
        traced = rates(traced_passes)
        report["traced_passes"] = len(traced_passes)
        report["traced_end_to_end"] = traced
        report["spans"] = len(tracer.spans)
        overhead = {k: traced[k] - untraced[k] for k in untraced}
        values = per_layer_metrics(tracer, sum(p.ops for p in traced_passes), overhead)
        catalog = PER_LAYER
    else:
        values, catalog = end_to_end, END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit, _ in catalog},
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if args.workload == "all":
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                check=False,
            ).returncode
            for name in WORKLOAD_NAMES
        ]
        return 0 if all(code == 0 for code in codes) else 1

    # BLAS reads its thread count once, when numpy is first imported.
    for var in BLAS_ENV:
        os.environ[var] = str(min(BLAS_THREADS, _nproc()))
    src = ROOT / "src"
    if not (src / "emoguide" / "__init__.py").is_file():
        print(f"error: no emoguide package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    report, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
