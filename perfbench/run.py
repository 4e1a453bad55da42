"""End-to-end and per-layer benchmark of the beamstab simulate -> certify pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout (it needs ``src/beamstab`` and
``BENCHMARK.json``).  Load model: a closed loop with one client; each CLI
invocation is a fresh interpreter started after the previous one exited.
The only concurrency is the sweep's own thread pool, capped at the number
of CPUs this process may run on.

``--trace 0`` repeats the workload for S seconds and reports the median
wall time from spawn to exit, the import set-up time and the child's peak
RSS (``os.wait4``), over successful invocations.  ``--trace 1`` repeats
(import breakdown, untraced run, traced run) for S seconds and reports the
median per-layer metrics of the traced runs; the traced artifacts must be
byte-identical to the untraced ones.  Every invocation's artifacts are
checked (see ``check.py``); a failed check or a non-zero exit counts as a
failed operation.

The last line of standard output is the JSON result; the line before it
holds the details (quartiles, sample counts, error rate and the machine
record).  ``--workload all`` runs every workload both ways and ends with a
table of all metrics.  Workload output goes to temporary directories under
``.bench_work/`` in the checkout, removed after each invocation; the spans
of the last traced run are kept there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import tracer

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD_TIMEOUT_S = 150.0
NPROC = len(os.sched_getaffinity(0))

# simulate_m41 (the default ``simulate`` run) is runnable but not declared in
# BENCHMARK.json.  A full pass (4 + 22 runs per declared workload) must fit
# in 57 minutes, which allows 55 s runs for two workloads but only 40 s for
# three, and on a shared 2-core machine sweep_m41's median spreads by 0.18
# from run to run at 40 s.  sweep_m41 exercises the same layers (import,
# both CSV writers).
WORKLOADS = ("simulate_m41", "sweep_m41", "certify_m321")


def workload(name: str, seed: int):
    """CLI arguments (without ``--out``) and the output check of one workload."""
    import beamstab as bs
    import check

    if name == "simulate_m41":
        prob = bs.preset("cantilever_dampers")
        return (["simulate", "--preset", "cantilever_dampers", "--nodes", "41"],
                lambda out: check.simulation(out, prob, 41), None)
    if name == "sweep_m41":
        prob = bs.preset("cantilever_dampers")
        values = [k / 1000 for k in random.Random(seed).sample(range(8001), 6)]
        return (["sweep", "--preset", "cantilever_dampers", "--param", "k_v",
                 "--values", ",".join(f"{v:g}" for v in values), "--nodes", "41"],
                lambda out: check.sweep(out, prob, "k_v", values, 41),
                min(NPROC, len(values)))
    if name == "certify_m321":
        prob = bs.preset("mast_constant")
        return (["bounds", "--preset", "mast_constant", "--nodes", "321"],
                lambda out: check.bounds_json(os.path.join(out, "bounds.json"), prob), None)
    raise SystemExit(f"unknown workload {name!r}; choose from {WORKLOADS} or all")


def environment(sweep_workers) -> dict:
    """What a later comparison needs to tell two machines apart."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "nproc": NPROC,
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "sweep_workers": sweep_workers,
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
    }


# ---------------------------------------------------------------------------
# one fresh-process invocation
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["BEAMSTAB_THREADS"] = str(NPROC)
    return env


def invoke(cli_args, checker, traced: bool, keep: str | None = None) -> dict:
    """Spawn the stub once, wait for it, check its artifacts.

    Returns wall/RSS/record, the check errors and, when traced, the spans.
    ``keep`` names a directory that receives the artifacts instead of them
    being deleted (for the byte-identity comparison).
    """
    tmp = tempfile.mkdtemp(prefix="run-", dir=WORK)
    out = keep or os.path.join(tmp, "out")
    record = os.path.join(tmp, "record.json")
    spans = os.path.join(tmp, "spans.json") if traced else "-"
    cmd = [sys.executable, os.path.join(HERE, "stub.py"), record, spans,
           *cli_args, "--out", out]
    try:
        with open(os.path.join(tmp, "stderr"), "w+") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=_child_env(), stdout=subprocess.DEVNULL,
                                    stderr=err)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read()
        result = {"wall_s": wall, "peak_rss_mib": usage.ru_maxrss / 1024.0, "errors": []}
        if proc.returncode != 0:
            result["errors"].append(f"exit {proc.returncode}: {stderr.strip()[-400:]}")
        else:
            with open(record) as fh:
                result.update(json.load(fh))
            if traced:
                with open(spans) as fh:
                    result["spans"] = json.load(fh)
            try:
                result["errors"] += checker(out)
            except Exception as exc:        # a malformed artifact fails this run only
                result["errors"].append(f"check crashed: {exc!r}")
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def import_breakdown() -> dict:
    """Cumulative import times from ``-X importtime`` in a fresh process."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import beamstab.cli"],
                          env=_child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line.split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) / 1e6
    return {"import.beamstab_s": cumulative["beamstab"],
            "import.scipy_interpolate_s": cumulative.get("scipy.interpolate", 0.0)}


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def _summary(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _repeat(seconds: float, once) -> list:
    """Call ``once`` until another call would end past ``seconds``; at least once."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(once(len(results)))
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def measure_untraced(cli_args, checker, seconds) -> tuple[dict, dict, int, int]:
    runs = _repeat(seconds, lambda i: invoke(cli_args, checker, traced=False))
    good = [r for r in runs if not r["errors"]]
    failed = len(runs) - len(good)
    detail = {"error_rate": failed / len(runs),
              "errors": [e for r in runs for e in r["errors"]][:10]}
    metrics = {}
    if good:
        for key in ("wall_s", "setup_s", "peak_rss_mib"):
            detail[key] = _summary([r[key] for r in good])
            metrics[key] = detail[key]["median"]
    return metrics, detail, len(runs), failed


def measure_traced(cli_args, checker, seconds, spans_path) -> tuple[dict, dict, int, int]:
    import check

    def rep(i):
        imports = import_breakdown()
        pair = {}
        keep = tempfile.mkdtemp(prefix="pair-", dir=WORK)
        try:
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                pair[traced] = invoke(cli_args, checker, traced,
                                      keep=os.path.join(keep, str(traced)))
            if not pair[True]["errors"] and not pair[False]["errors"]:
                pair[True]["errors"] += check.same_tree(os.path.join(keep, "False"),
                                                        os.path.join(keep, "True"))
        finally:
            shutil.rmtree(keep, ignore_errors=True)
        return imports, pair[False], pair[True]

    reps = _repeat(seconds, rep)
    runs = [r for _, plain, traced in reps for r in (plain, traced)]
    failed = sum(bool(r["errors"]) for r in runs)
    good = [(imp, plain, traced) for imp, plain, traced in reps
            if not plain["errors"] and not traced["errors"]]
    detail = {"reps": len(reps), "error_rate": failed / len(runs),
              "errors": [e for r in runs for e in r["errors"]][:10]}
    if not good:
        return {}, detail, len(runs), failed

    per_rep = [{**imp, **tracer.layer_metrics(traced["spans"])} for imp, _, traced in good]
    metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
    plain_main = statistics.median(plain["main_s"] for _, plain, _ in good)
    traced_main = statistics.median(traced["main_s"] for _, _, traced in good)
    metrics["trace.overhead_s"] = traced_main - plain_main
    detail.update({"cli_main_untraced_s": plain_main, "cli_main_traced_s": traced_main,
                   "spans": spans_path})
    with open(spans_path, "w") as fh:
        json.dump(good[-1][2]["spans"], fh)
    return metrics, detail, len(runs), failed


def run_one(name: str, seed: int, seconds: float, traced: bool, spec: dict) -> dict:
    cli_args, checker, sweep_workers = workload(name, seed)
    if traced:
        spans_path = os.path.join(WORK, f"spans_{name}_seed{seed}.json")
        metrics, detail, attempted, failed = measure_traced(cli_args, checker, seconds,
                                                            spans_path)
        declared = spec["per_layer"]
    else:
        metrics, detail, attempted, failed = measure_untraced(cli_args, checker, seconds)
        declared = spec["end_to_end"]
    if failed == 0 and set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ {m['name'] for m in declared})}"
                           " are computed but not declared, or declared but not computed")
    detail.update({"workload": name, "seed": seed, "trace": int(traced),
                   "cli_args": cli_args, "env": environment(sweep_workers)})
    print(json.dumps({"detail": detail}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in metrics},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "beamstab", "__init__.py")) \
            or not os.path.isfile(spec_path):
        print(f"run from the root of a beamstab checkout: {SRC}/beamstab or "
              f"{spec_path} is missing", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    import beamstab.cli  # noqa: F401  -- writes bytecode so children start warm

    os.makedirs(WORK, exist_ok=True)
    if args.workload != "all":
        print(json.dumps(run_one(args.workload, args.seed, args.seconds,
                                 bool(args.trace), spec)))
        return 0

    table = []
    for name in WORKLOADS:
        for traced in (False, True):
            result = run_one(name, args.seed, args.seconds, traced, spec)
            print(json.dumps(result))
            table += [(name, metric, m["value"], m["unit"])
                      for metric, m in result["metrics"].items()]
            table.append((name, "error_rate", result["failed"] / result["attempted"],
                          "ratio"))
    for row in table:
        print("{:<14} {:<44} {:>14.6g} {}".format(*row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
