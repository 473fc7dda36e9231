"""Benchmark of the three ``ecc`` workloads users run: ``pair_cli``, ``pairwise_ks``, ``experiment_cell``.

Usage, from the repository root::

    python3 bench/run.py                                   # every workload once
    python3 bench/run.py --workload pair_cli --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --runs 10 --seed 1 --record a.jsonl   # seeds 1..10 per workload
    python3 bench/compare.py a.jsonl b.jsonl

A run prepares the workload's inputs several times (``setup_s`` is the
median), then runs the workload closed-loop, one client, for ``--seconds``:
each iteration starts when the previous one ends, and at least one runs.
Every command is a fresh interpreter, spawned by ``bench/launcher.py``; its
wall, CPU and peak RSS come from ``wait4`` there. Outputs are checked after each iteration, untimed; a command
fails on a non-zero exit or a failed check.

End-to-end metrics (``--trace 0``), each the median over the run's iterations:
``wall_s`` (one iteration, interpreter starts included), ``cpu_s`` (user +
system CPU of its child processes), ``peak_rss_mb`` (largest child peak RSS),
``setup_s`` (median of the set-ups) and ``ok_ratio``, the share of attempted
operations that succeeded. An operation is one command, and on
``experiment_cell`` also each Monte Carlo replication; ``ok_ratio`` is
1 - fail_ratio, reported this way because a metric must never read 0.

With ``--trace 1`` the run adds one traced iteration, in which every command
runs under ``bench/tracer.py``, and reports per-layer metrics instead of the
end-to-end ones: ``<module>.<function>.calls|self_s|bytes|values`` summed
over the iteration's commands, ``cli.import_s``, ``replicate_rho.busy_s``
(pool work inside it) and ``pool_idle_s`` (threads x its wall - busy_s).
On ``experiment_cell`` it adds a second traced iteration at one thread;
``simulate.pool_speedup`` is the ``replicate_rho`` wall there over the wall
at two threads. ``trace.overhead_s`` is the traced iteration's wall minus
the untraced median, and ``trace.coverage`` the smallest share of a traced
command's wall spent importing or inside a span (the rest is interpreter
start and exit); a run with coverage under 0.9 is not correct. Layers a
workload does not reach read 0.

Each run prints its full record (run environment, sizes, every iteration,
output hashes) as a JSON line, then, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``. ``--record`` appends the
records to a JSON-lines file that ``bench/compare.py`` reads.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = BENCH / "tracer.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REFERENCE = json.loads((BENCH / "reference_sha256.json").read_text(encoding="utf-8"))

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 100  # a hung command is killed, so a run still ends within 180 s
MIN_TRACE_COVERAGE = 0.9

# (layer, quantities) reported by a traced run, in BENCHMARK.json order
PER_LAYER = (
    ("cli.main", ("self_s",)),
    ("curveio.parse_curve_file", ("calls", "self_s", "bytes")),
    ("curveio.format_curves", ("calls", "self_s")),
    ("curveio.write_curve_file", ("self_s", "bytes")),
    ("curves.as_sample", ("calls", "self_s")),
    ("curves.norms", ("calls", "self_s")),
    ("curves.center", ("calls", "self_s")),
    ("curves.pair_radii", ("calls", "self_s")),
    ("curves.inner_products", ("calls", "self_s")),
    ("tail.select_k_mindist", ("calls", "self_s", "values")),
    ("tail.select_k_ks", ("calls", "self_s", "values")),
    ("tail.hill", ("calls", "self_s")),
    ("tail.hill_series", ("calls", "self_s")),
    ("transform.power_transform", ("calls", "self_s")),
    ("estimators.estimate_pipeline", ("calls", "self_s")),
    ("estimators.ecc_report", ("calls", "self_s")),
    ("estimators.order_statistic", ("calls", "self_s")),
    ("estimators.pairwise_matrix", ("self_s",)),
    ("chi.chi_curve", ("calls", "self_s")),
    ("simulate.generate_paired", ("calls", "self_s")),
    ("simulate.draw_paired", ("calls", "self_s")),
    ("simulate.replicate_rho", ("self_s", "busy_s", "pool_idle_s")),
)


class Op:
    """One CLI command as it ran: resource use from wait4, then its check result."""

    def __init__(self, name, wall_s, cpu_s, rss_mb, code):
        self.name, self.wall_s, self.cpu_s, self.rss_mb, self.code = name, wall_s, cpu_s, rss_mb, code
        self.failure = None if code == 0 else f"exit code {code}"


class Launcher:
    """Spawns the benchmark's child processes through ``bench/launcher.py``; see there why."""

    def __init__(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("ECC_THREADS", None)
        # its own process group, so an interrupted benchmark can stop the launcher and its child
        self._proc = subprocess.Popen([sys.executable, str(BENCH / "launcher.py")], env=env, text=True,
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      start_new_session=True)

    def run(self, name, argv, cwd: Path) -> Op:
        """Run one child with stdout/stderr in ``cwd/<name>.out|.err`` and wait for it."""
        req = {"argv": argv, "cwd": str(cwd), "stdout": str(cwd / f"{name}.out"),
               "stderr": str(cwd / f"{name}.err"), "timeout": CHILD_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(req) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        res = json.loads(line)
        return Op(name, res["wall_s"], res["cpu_s"], res["rss_mb"], res["code"])

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            os.killpg(self._proc.pid, signal.SIGKILL)
        self._proc.stdin.close()
        self._proc.wait(timeout=CHILD_TIMEOUT_S + 30)
        self._proc.stdout.close()


def sha256_of(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


class Iteration:
    """One pass over a workload's commands in its own directory."""

    def __init__(self, ops, wall_s, out: Path):
        self.ops, self.wall_s, self.out = ops, wall_s, out
        self.cpu_s = sum(op.cpu_s for op in ops)
        self.rss_mb = max(op.rss_mb for op in ops)
        self.hashes = {}
        self.failed_reps = 0

    def summary(self):
        return {"wall_s": self.wall_s, "cpu_s": self.cpu_s, "peak_rss_mb": self.rss_mb,
                "ops": [{"name": op.name, "wall_s": op.wall_s, "cpu_s": op.cpu_s,
                         "rss_mb": op.rss_mb, "code": op.code, "failure": op.failure}
                        for op in self.ops],
                "failed_replications": self.failed_reps}


def run_iteration(launcher, wl, inputs: Path, out: Path, traced=False, threads=None) -> Iteration:
    out.mkdir(parents=True)
    ops = []
    t0 = time.perf_counter()
    for name, args in wl.commands(inputs, threads):
        if traced:
            argv = [sys.executable, str(TRACER), "--spans", str(out / f"{name}.spans.json"), "--", *args]
        else:
            argv = [sys.executable, "-m", "ecc.cli", *args]
        ops.append(launcher.run(name, argv, out))
    it = Iteration(ops, time.perf_counter() - t0, out)
    check_iteration(wl, it, inputs)
    return it


def check_iteration(wl, it: Iteration, inputs: Path) -> None:
    """Fill in each op's failure and the iteration's output hashes and failed replications."""
    for op in it.ops:
        if op.failure is None:
            try:
                op.failure = wl.check(op.name, it.out, inputs)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                op.failure = f"output unreadable: {exc!r}"
    it.hashes = {f: sha256_of(it.out / f) for f in wl.outputs}
    if wl.replications:
        if any(op.failure for op in it.ops):
            it.failed_reps = wl.replications * len(it.ops)
        else:
            it.failed_reps = wl.failed_replications(it.out)


def counts(iterations, wl):
    """(attempted, failed) operations: each command, plus each replication where there are any."""
    attempted = failed = 0
    for it in iterations:
        attempted += len(it.ops) * (1 + wl.replications)
        failed += sum(op.failure is not None for op in it.ops) + it.failed_reps
    return attempted, failed


def mark_nondeterministic(iterations, wl) -> None:
    """Fail an op whose outputs differ from the first iteration's: same inputs, same bits."""
    first = iterations[0].hashes
    for it in iterations[1:]:
        ops = {op.name: op for op in it.ops}
        for fname, digest in it.hashes.items():
            op = ops[wl.outputs[fname]]
            if digest != first[fname] and op.failure is None:
                op.failure = f"{fname} differs from the first iteration's"


def hash_report(wl, hashes):
    ref = REFERENCE.get(wl.name, {}).get(str(wl.seed))
    return {f: {"sha256": h, "matches_seed_commit": None if ref is None else ref.get(f) == h}
            for f, h in hashes.items()}


def cache_sizes():
    """L2/L3 sizes in bytes as the kernel reports them for cpu0 (read-only)."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
            if level in ("2", "3") and size.endswith("K"):
                out[f"L{level}_bytes"] = int(size[:-1]) * 1024
    except OSError:
        pass
    return out


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return res.stdout.strip() or None


def run_environment():
    import numpy
    import scipy

    return {"git_sha": git_sha(), "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)), **cache_sizes()}


# quantity -> (aggregate field, unit); pool_idle_s is derived from wall_s and busy_s
QUANTITIES = {"calls": ("calls", "count"), "self_s": ("self_s", "s"), "bytes": ("size", "B"),
              "values": ("size", "count"), "busy_s": ("busy_s", "s")}


def layer_totals(iteration: Iteration):
    """Per-layer totals over the commands of one traced iteration, its import time and worst coverage.

    Coverage is the share of a command's wall time spent in the import or
    inside a span; the rest is interpreter start and exit.
    """
    from tracer import aggregate

    totals, import_s, coverage = {}, 0.0, 1.0
    for op in iteration.ops:
        trace = json.loads((iteration.out / f"{op.name}.spans.json").read_text(encoding="utf-8"))
        layers, root_s = aggregate(trace)
        import_s += trace["import_s"]
        coverage = min(coverage, (trace["import_s"] + root_s) / op.wall_s)
        for name, row in layers.items():
            acc = totals.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                acc[key] += value
    return totals, import_s, coverage


def trace_metrics(wl, traced, untraced_wall):
    """Per-layer metrics of a traced run, its coverage and its top self-time layer."""
    totals, import_s, coverage = layer_totals(traced[0])
    empty = {"calls": 0, "self_s": 0.0, "size": 0, "wall_s": 0.0, "busy_s": 0.0}
    metrics = {"cli.import_s": (import_s, "s")}
    for layer, quantities in PER_LAYER:
        row = totals.get(layer, empty)
        for q in quantities:
            if q == "pool_idle_s":
                metrics[f"{layer}.{q}"] = (wl.threads * row["wall_s"] - row["busy_s"], "s")
            else:
                field, unit = QUANTITIES[q]
                metrics[f"{layer}.{q}"] = (row[field], unit)
    speedup = 0.0
    if wl.threads > 1:
        one_thread = layer_totals(traced[1])[0].get("simulate.replicate_rho", empty)["wall_s"]
        speedup = one_thread / totals["simulate.replicate_rho"]["wall_s"]
    metrics["simulate.pool_speedup"] = (speedup, "ratio")
    metrics["trace.overhead_s"] = (traced[0].wall_s - untraced_wall, "s")
    metrics["trace.coverage"] = (coverage, "ratio")
    top = max(totals, key=lambda name: totals[name]["self_s"])
    return metrics, coverage, top


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(launcher, name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed)
    base = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    try:
        setup_s = []
        for i in range(SETUP_REPEATS):
            inputs = base / f"setup{i}"
            inputs.mkdir()
            t0 = time.perf_counter()
            wl.prepare(inputs)
            warm = launcher.run("warmup", [sys.executable, "-c", "import ecc.cli"], inputs)
            setup_s.append(time.perf_counter() - t0)
            if warm.code != 0:
                raise SystemExit(f"warm-up import of ecc.cli failed: {(inputs / 'warmup.err').read_text()}")

        iterations = []
        t_begin = time.perf_counter()
        while not iterations or time.perf_counter() - t_begin < seconds:
            iterations.append(run_iteration(launcher, wl, inputs, base / f"iter{len(iterations)}"))
        timed = list(iterations)

        traced = []
        if trace:
            traced.append(run_iteration(launcher, wl, inputs, base / "traced", traced=True))
            if wl.threads > 1:
                traced.append(run_iteration(launcher, wl, inputs, base / "traced1", traced=True, threads=1))
            iterations += traced
        mark_nondeterministic(iterations, wl)
        attempted, failed = counts(iterations, wl)

        wall = statistics.median(it.wall_s for it in timed)
        coverage = top_layer = None
        if trace:
            metrics, coverage, top_layer = trace_metrics(wl, traced, wall)
        else:
            metrics = {
                "wall_s": (wall, "s"),
                "cpu_s": (statistics.median(it.cpu_s for it in timed), "s"),
                "peak_rss_mb": (statistics.median(it.rss_mb for it in timed), "MB"),
                "ok_ratio": ((attempted - failed) / attempted, "ratio"),
                "setup_s": (statistics.median(setup_s), "s"),
            }
        failures = sorted({f"{it.out.name}/{op.name}: {op.failure}"
                           for it in iterations for op in it.ops if op.failure})
        correct = not failures and (coverage is None or coverage >= MIN_TRACE_COVERAGE)
        return {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "environment": run_environment(), "threads": wl.threads,
            "sizes": wl.sizes(inputs, iterations[0].out),
            "setup_s": setup_s, "iterations": [it.summary() for it in iterations],
            "failures": failures, "fail_ratio": failed / attempted, "top_self_layer": top_layer,
            "outputs": hash_report(wl, iterations[0].hashes),
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: metric(v, u) for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(base, ignore_errors=True)


def describe(rec) -> str:
    vals = ", ".join(f"{k} {m['value']:.4g} {m['unit']}" for k, m in rec["metrics"].items()
                     if rec["trace"] == 0 or not k.endswith(".calls"))
    status = "ok" if rec["correct"] else "FAILED: " + "; ".join(rec["failures"])
    return f"{rec['workload']} seed {rec['seed']} ({len(rec['iterations'])} iterations): {vals} [{status}]"


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, default=None, help="default: every workload")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (first of --runs)")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="runs per workload, seeds seed.. seed+runs-1")
    parser.add_argument("--record", default=None, help="append each run record to this JSON-lines file")
    args = parser.parse_args(argv)

    if not (SRC / "ecc" / "cli.py").is_file():
        sys.stderr.write(f"no ecc source tree at {SRC}; run from a full checkout\n")
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    records = []
    with Launcher() as launcher:  # started before this process imports NumPy
        sys.path.insert(0, str(SRC))
        for name in [args.workload] if args.workload else names:
            for seed in range(args.seed, args.seed + args.runs):
                rec = run_workload(launcher, name, seed, args.seconds, bool(args.trace))
                records.append(rec)
                sys.stderr.write(describe(rec) + "\n")
                print(json.dumps(rec), flush=True)
                if args.record:
                    with open(args.record, "a", encoding="utf-8") as fh:
                        fh.write(json.dumps(rec) + "\n")
    if len(records) == 1:
        summary = {k: records[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:  # several runs: the median of each workload's metric across its runs
        from compare import quartiles

        values = {}
        for r in records:
            for k, m in r["metrics"].items():
                values.setdefault((f"{r['workload']}.{k}", m["unit"]), []).append(m["value"])
        for (k, u), v in values.items():
            q1, med, q3 = quartiles(v)
            sys.stderr.write(f"{k}: median {med:.4g} {u} [q1 {q1:.4g}, q3 {q3:.4g}] over {len(v)} runs\n")
        summary = {"correct": all(r["correct"] for r in records),
                   "attempted": sum(r["attempted"] for r in records),
                   "failed": sum(r["failed"] for r in records),
                   "metrics": {k: metric(statistics.median(v), u) for (k, u), v in values.items()}}
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
