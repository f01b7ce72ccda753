"""metricgap benchmark: three seeded workloads through the public API.

    python3 benchmark/run.py --workload {enum,sweep,bnb,all} --seed N \
        --seconds S --trace {0,1} [--inject-fault]

Run from the root of a checkout; the package is imported from ./src.  One
process generates all load.  The run solves whole rounds of the workload
(see workloads.py) until another round would overrun --seconds, then checks
every output (gate.py) outside the timed region.

--trace 0 reports the end-to-end metrics; --trace 1 first repeats the
untraced measurement for half the time, then replays the same instances
with every public function of the package wrapped (tracing.py) and reports
the per-layer metrics.  --inject-fault skews one closed-form value by 1e-3
to show that the gate fails.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give the run
environment, every metric with its unit and sample count, and each failed
instance by name.  Gated timings are scaled to a reference host speed
(speed.py); the raw figures are printed beside them.  The exit code is 1 when an output is wrong, 2 when the
checkout lacks the package.  --workload all runs the three workloads one
after another, each in its own process, and prints each one's block.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

# Small dense matrices gain nothing from BLAS threads, and a second thread
# spinning against other load on a 2-core machine made a 7-point CLI call
# 12x slower (56 ms against 4.7 ms).  Must be set before numpy is imported.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5

WORKLOADS = ("enum", "sweep", "bnb")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Per-layer metrics: (name, unit, better, workload, end-to-end metric it
# should move).  Times ending in _s are seconds per instance of the run.
PER_LAYER = [
    ("cli.parse_input_s", "s", "lower", "sweep", "instances_per_s"),
    ("cli.realize_s", "s", "lower", "sweep", "instances_per_s"),
    ("cli.emit_report_s", "s", "lower", "sweep", "instances_per_s"),
    ("cli.run_gap_self_s", "s", "lower", "sweep", "instances_per_s"),
    ("metric.validate_metric_s", "s", "lower", "sweep", "instances_per_s"),
    ("metric.path_metric_s", "s", "lower", "sweep", "instances_per_s"),
    ("metric.power_matrix_s", "s", "lower", "sweep", "instances_per_s"),
    ("negtype.classify_calls_per_instance", "count", "lower", "sweep", "instances_per_s, solve_s_p90"),
    ("negtype.build_B_calls_per_instance", "count", "lower", "sweep", "instances_per_s, solve_s_p90"),
    ("negtype.classify_s", "s", "lower", "sweep", "instances_per_s, solve_s_p90"),
    ("negtype.build_B_s", "s", "lower", "sweep", "instances_per_s, solve_s_p90"),
    ("linalg.factor_calls_per_instance", "count", "lower", "sweep", "instances_per_s"),
    ("linalg.factor_s", "s", "lower", "sweep", "instances_per_s"),
    ("linalg.invert_s", "s", "lower", "sweep", "instances_per_s"),
    ("gap.beta_hypercube_s", "s", "lower", "enum", "instances_per_s, solve_s_p50"),
    ("gap.gray_ns_per_sign_vector", "ns", "lower", "enum", "instances_per_s, solve_s_p50"),
    ("gap.gray_scale_penalty", "ratio", "lower", "enum", "instances_per_s, solve_s_p50"),
    ("gap.beta_opnorm_s", "s", "lower", "enum", "instances_per_s, solve_s_p50"),
    ("gap.opnorm_ns_per_sign_vector", "ns", "lower", "enum", "instances_per_s, solve_s_p50"),
    ("gap.beta_binary_s", "s", "lower", "enum", "instances_per_s, solve_s_p50"),
    ("gap.binary_ns_per_sign_vector", "ns", "lower", "enum", "instances_per_s, solve_s_p50"),
    ("gap.kernel_share", "ratio", "lower", "enum", "instances_per_s, solve_s_p50"),
    ("gap.branch_and_bound_s", "s", "lower", "bnb", "instances_per_s, bound_over_beta"),
    ("gap.bnb_nodes", "count", "lower", "bnb", "bound_over_beta, certified_ratio"),
    ("gap.bnb_nodes_per_s", "1/s", "higher", "bnb", "instances_per_s"),
    ("gap.make_witness_s", "s", "lower", "sweep", "instances_per_s"),
    ("closed_forms.oracle_s", "s", "lower", "sweep", "instances_per_s"),
    ("trace.overhead_ratio", "ratio", "higher", "all", "none (traced over untraced instances_per_s)"),
]

# End-to-end metrics in the result line.  Solve-time percentiles are printed
# but not gated: on a shared 2-vCPU host they spread by 13-39% across seeds,
# more than the largest regression bound (0.25) allows.
END_TO_END = [
    ("setup_s", "s"),
    ("instances_per_s", "1/s"),
    ("bound_over_beta", "ratio"),
    ("peak_rss_mb", "MB"),
]
PERCENTILES = [("solve_s_p50", "s"), ("solve_s_p90", "s")]


@dataclass(eq=False)
class Record:
    inst: object
    seconds: float
    result: object
    bnb: object = None  # the BnbResult behind a bnb instance


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-fault", action="store_true")
    return ap.parse_args(argv)


def environment(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = ROOT / "src" / "metricgap"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


_SETUP_CHILD = """
import time
t0 = time.perf_counter()
import metricgap as mg
{warm}
print(time.perf_counter() - t0)
"""
_WARM = {
    "solve": "mg.solve_gap(mg.path_metric(mg.gen_random_tree(8, seed=0)))",
    "cli": ("import contextlib, io\nfrom metricgap import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(['gap', {path!r}, '--report', 'machine', '--witness'])"),
}


def measure_setup(warm: str, probe) -> float:
    """Median time for a fresh interpreter to import metricgap and finish
    its first small solve: the program's own set-up, paid on every start."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        out = subprocess.run([sys.executable, "-c", _SETUP_CHILD.format(warm=warm)], cwd=ROOT,
                             env=env, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_rounds(make_round, call, budget: float, probe, rounds=None, tracer=None):
    """Solve whole rounds until another would overrun ``budget`` seconds,
    or replay the given rounds.  Only the calls themselves are timed; the
    probe samples the host speed between them."""
    replay = rounds is not None
    rounds = rounds if replay else []
    records = []
    start = time.perf_counter()
    k = 0
    while True:
        if replay:
            if k == len(rounds):
                break
            batch = rounds[k]
        else:
            elapsed = time.perf_counter() - start
            if k and elapsed * (k + 1) / k > budget:
                break
            batch = make_round()
            rounds.append(batch)
        for inst in batch:
            probe.sample_if_stale()
            if tracer is not None:
                tracer.instance = len(records)
            t0 = time.perf_counter()
            result, bnb = call(inst)
            records.append(Record(inst, time.perf_counter() - t0, result, bnb))
        k += 1
    return rounds, records


def nearest_rank(ordered: list[float], q: float) -> float:
    """The smallest value with at least a share q of values at or below it."""
    return ordered[math.ceil(q * len(ordered)) - 1]


def slot_medians(records, value) -> list[float]:
    """Median over rounds of ``value`` for each slot (a family and size in
    enum and bnb, a document in sweep), skipping None.

    On a shared host the same computation can run up to 1.9x slower from
    one second to the next; a slot's median over rounds damps that, and a
    slot whose draws vary in difficulty is judged by its typical draw.
    """
    by_slot = defaultdict(list)
    for r in records:
        v = value(r)
        if v is not None:
            by_slot[r.inst.name].append(v)
    return [statistics.median(v) for v in by_slot.values()]


def _solved_exactly(record) -> bool:
    """Enumeration gave this instance a beta, so it is exact."""
    if getattr(record.result, "beta", None) is not None:
        return True
    out = record.result
    return getattr(out, "code", None) == 0 and json.loads(out.stdout).get("beta") is not None


def _bound_ratio(record):
    if record.bnb is not None:
        return max(record.bnb.best_bound, record.bnb.beta) / record.bnb.beta
    return 1.0 if _solved_exactly(record) else None


def end_to_end(records, setup_s: float, scale: float = 1.0) -> dict:
    """Throughput and percentiles of a typical round: per-slot medians.
    Timings are multiplied by ``scale`` (see speed.py)."""
    times = sorted(scale * t for t in slot_medians(records, lambda r: r.seconds))
    return {
        "setup_s": scale * setup_s,
        "instances_per_s": len(times) / sum(times),
        "solve_s_p50": nearest_rank(times, 0.5),
        "solve_s_p90": nearest_rank(times, 0.9),
        "bound_over_beta": statistics.fmean(slot_medians(records, _bound_ratio)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def reported_only(records, gate) -> dict:
    """Metrics printed for reading but not gated in BENCHMARK.json: zero on some
    workload, or a discrete count over a handful of instances."""
    exact, certified, gaps = 0, 0, []
    for r in records:
        if r.bnb is not None:
            exact += 1
            certified += bool(r.bnb.certified)
            gaps.append(max(0.0, r.bnb.best_bound - r.bnb.beta) / r.bnb.beta)
        elif _solved_exactly(r):
            exact += 1
            certified += 1
    failed = sum(1 for r in records if r.inst.name in gate.failures)
    return {
        "fail_ratio": (failed / len(records), "failed/attempted"),
        "certified_ratio": (certified / max(exact, 1), "certified/solved"),
        "bnb_bound_gap_rel": (statistics.fmean(gaps) if gaps else 0.0, "ratio"),
        "beta_rel_err_max": (max(gate.closed_form_errors, default=0.0), "ratio"),
    }


def per_layer(tracer, records, untraced_s: float, traced_s: float) -> dict:
    from tracing import END, INSTANCE, NAME, PARENT, START, self_times
    from workloads import STRICT

    spans = tracer.spans
    own = self_times(spans)
    dur = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    sign_vectors = defaultdict(float)
    scaled = defaultdict(lambda: [0.0, 0.0])
    strict = {i for i, r in enumerate(records) if r.inst.expect == STRICT}
    for k, s in enumerate(spans):
        name, d = s[NAME], s[END] - s[START]
        inst = records[s[INSTANCE]].inst
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
        dur[name] += d
        self_s[name] += own[k]
        if s[INSTANCE] in strict:
            calls[name] += 1
        if name.startswith("closed_forms.") and not parent.startswith("closed_forms."):
            dur["closed_forms.oracle"] += d
        if name in ("gap.beta_hypercube", "gap.beta_opnorm", "gap.beta_binary"):
            sign_vectors[name] += 2.0 ** (inst.n - 1)
            if name == "gap.beta_hypercube" and "scale" in inst.meta:
                acc = scaled[inst.meta["scale"]]
                acc[0] += d
                acc[1] += 2.0 ** (inst.n - 1)
    count = len(records)
    n_strict = max(len(strict), 1)

    def ns_per_sv(name):
        return 1e9 * dur[name] / sign_vectors[name] if sign_vectors[name] else 0.0

    unit, large = scaled["unit"], scaled["large"]
    nodes = [r.bnb.nodes_expanded for r in records if r.bnb is not None]
    kernels = dur["gap.beta_hypercube"] + dur["gap.beta_opnorm"] + dur["gap.beta_binary"]
    out = {
        "negtype.classify_calls_per_instance": calls["negtype.classify"] / n_strict,
        "negtype.build_B_calls_per_instance": calls["negtype.build_B"] / n_strict,
        "linalg.factor_calls_per_instance": calls["linalg.factor"] / n_strict,
        "cli.run_gap_self_s": self_s["cli.run_gap"] / count,
        "gap.gray_ns_per_sign_vector": ns_per_sv("gap.beta_hypercube"),
        "gap.opnorm_ns_per_sign_vector": ns_per_sv("gap.beta_opnorm"),
        "gap.binary_ns_per_sign_vector": ns_per_sv("gap.beta_binary"),
        "gap.gray_scale_penalty": (large[0] / large[1]) / (unit[0] / unit[1]) if unit[1] else 0.0,
        "gap.kernel_share": kernels / dur["gap.solve_gap"] if dur["gap.solve_gap"] else 0.0,
        "gap.bnb_nodes": statistics.fmean(nodes) if nodes else 0.0,
        "gap.bnb_nodes_per_s": (sum(nodes) / dur["gap.branch_and_bound"]
                                if dur["gap.branch_and_bound"] else 0.0),
        "trace.overhead_ratio": untraced_s / traced_s,
    }
    for name, *_ in PER_LAYER:
        if name not in out:
            out[name] = dur[name[: -len("_s")]] / count
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        flags = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)] + (["--inject-fault"] if args.inject_fault else [])
        codes = [subprocess.run([sys.executable, __file__, "--workload", w, *flags]).returncode
                 for w in WORKLOADS]
        return max(codes)
    if not (ROOT / "src" / "metricgap" / "__init__.py").is_file() or not (
        ROOT / "tests" / "oracles.py"
    ).is_file():
        sys.stderr.write(f"benchmark: no src/metricgap or tests/oracles.py under {ROOT}\n")
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import warnings

    import numpy as np

    import workloads as wl
    from gate import Gate, load_oracles
    from speed import REFERENCE_S, SpeedProbe
    from tracing import Tracer

    # Inputs that merge duplicate points or overflow warn on stderr; the
    # gate judges outcomes, so the warnings are noise here.
    warnings.simplefilter("ignore")
    env = environment(args)
    print(json.dumps({"environment": env}, sort_keys=True))

    rng = np.random.default_rng(args.seed)
    gate = Gate(load_oracles(ROOT).beta_brute, inject_fault=args.inject_fault)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.workload == "sweep":
            docs = wl.sweep_documents(rng)
            wl.write_documents(docs, workdir)
            make_round, warm = (lambda: docs), _WARM["cli"].format(path=docs[0].path)

            def call(inst):
                return wl.sweep_call(inst), None

            check = gate.check_sweep
        elif args.workload == "enum":
            make_round, warm = (lambda: wl.enum_round(rng)), _WARM["solve"]

            def call(inst):
                return wl.enum_call(inst), None

            check = gate.check_enum
        else:
            make_round, warm = (lambda: wl.bnb_round(rng)), _WARM["solve"]

            def call(inst):
                captured = []
                return wl.bnb_call(inst, captured), captured[-1]

            check = gate.check_bnb

        probe = SpeedProbe()
        setup_s = measure_setup(warm, probe)
        # First calls in this process import and initialise lazily; keep
        # that out of the timed region (setup_s measures it).
        if args.workload == "sweep":
            call(docs[0])
        else:
            wl.warm_up()
        budget = args.seconds / 2 if args.trace else args.seconds
        rounds, records = run_rounds(make_round, call, budget, probe)
        all_records = list(records)
        layers = None
        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                _, traced = run_rounds(None, call, budget, probe, rounds=rounds, tracer=tracer)
            layers = per_layer(tracer, traced,
                               sum(r.seconds for r in records), sum(r.seconds for r in traced))
            all_records += traced
        for r in all_records:
            check(r.inst, r.result, *([r.bnb] if r.bnb is not None else []))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    e2e = end_to_end(records, setup_s, probe.scale())
    raw = end_to_end(records, setup_s)
    print(f"workload {args.workload}: {len(records)} instances in {len(rounds)} rounds, "
          f"{sum(r.seconds for r in records):.2f} s timed")
    for name, unit in END_TO_END + PERCENTILES:
        extra = f"  (raw {raw[name]:.6g})" if raw[name] != e2e[name] else ""
        print(f"  {name:<34} {e2e[name]:.6g} {unit}{extra}")
    print(f"  reference loop: median {statistics.median(probe.seconds) * 1e3:.4g} ms over "
          f"{len(probe.seconds)} samples; gated times are scaled to {REFERENCE_S * 1e3:g} ms")
    for name, (value, unit) in reported_only(records, gate).items():
        print(f"  {name:<34} {value:.6g} {unit}")
    print(f"  solve_s percentiles over {len({r.inst.name for r in records})} slot medians")
    if args.workload != "sweep":
        for r in records:
            line = f"    {r.inst.name:<14} n={r.inst.n:<3} {r.seconds:9.4f} s"
            if r.bnb is not None:
                gap = (r.bnb.best_bound - r.bnb.beta) / r.bnb.beta
                line += (f"  certified={r.bnb.certified} nodes={r.bnb.nodes_expanded}"
                         f" bound_gap={max(gap, 0.0):.4f}")
            print(line)
    if layers is not None:
        for name, unit, _, workload, moves in PER_LAYER:
            print(f"  {name:<34} {layers[name]:.6g} {unit}  [{workload} -> {moves}]")
    for name, reason in sorted(gate.failures.items()):
        print(f"  FAILED {name}: {reason}")
    for name, reason in sorted(gate.wrong.items()):
        print(f"  WRONG {name}: {reason}")

    if layers is not None:
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, *_ in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    failed = sum(1 for r in records if r.inst.name in gate.failures)
    print(json.dumps({"correct": gate.correct, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
