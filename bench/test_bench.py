"""Tests of the benchmark's own logic on tiny inputs.

Run with ``python3 -m pytest bench/test_bench.py -q`` from the repository root.
"""
from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, aggregate, self_times  # noqa: E402

import ecc  # noqa: E402


def span(sid, parent, t0, t1, name="f", on_main=True, size=0):
    return [sid, name, on_main, parent, t0, t1, size]


def test_self_time_of_nested_spans():
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 2.0, 5.0), span(2, 1, 3.0, 4.0), span(3, 0, 6.0, 7.0)]
    assert self_times(spans) == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


def test_self_time_of_overlapping_cross_thread_children():
    # two pool workers overlap inside the parent; one child runs past the parent's end
    spans = [
        span(0, None, 0.0, 10.0, "simulate.replicate_rho"),
        span(1, 0, 1.0, 6.0, "simulate.draw_paired", on_main=False),
        span(2, 0, 2.0, 8.0, "simulate.draw_paired", on_main=False),
        span(3, 0, 9.0, 11.0, "simulate.draw_paired", on_main=False),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)
    layers, root_s = aggregate({"spans": spans})
    rep = layers["simulate.replicate_rho"]
    assert rep["busy_s"] == pytest.approx(5.0 + 6.0 + 2.0)
    assert layers["simulate.draw_paired"]["calls"] == 3
    assert root_s == pytest.approx(10.0)


def test_pool_thread_spans_are_parented_to_the_open_main_span():
    tracer = Tracer()
    leaf = tracer.wrap("simulate.draw_paired", lambda i: i)

    def outer():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, range(4)))

    assert tracer.wrap("simulate.replicate_rho", outer)() == [0, 1, 2, 3]
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s[1], []).append(s)
    (root,) = by_name["simulate.replicate_rho"]
    assert root[2] and root[3] is None
    assert all(s[3] == root[0] and not s[2] for s in by_name["simulate.draw_paired"])


def test_tracer_wraps_every_namespace_that_binds_a_function():
    import ecc.cli  # noqa: F401

    before = ecc.estimators.norms
    tracer = Tracer()
    saved = {name: dict(vars(m)) for name, m in sys.modules.items()
             if name == "ecc" or name.startswith("ecc.")}
    try:
        tracer.install()
        for mod in (ecc.curves, ecc.estimators, ecc.transform, ecc):
            assert mod.norms is not before and mod.norms.__wrapped__ is before
        ecc.estimators.ecc_report(np.eye(3, 4) + 1.0, np.ones((3, 4)), 2)
    finally:
        for name, attrs in saved.items():
            vars(sys.modules[name]).update(attrs)
    names = [s[1] for s in tracer.spans]
    assert names.count("curves.norms") >= 2 and "estimators.order_statistic" in names
    assert ecc.estimators.norms is before


def test_checks_reject_corrupted_estimate_and_chi(tmp_path):
    good = {"k": 50, "tail_x": {"k": 40}, "tail_y": {"k": 60}, "exceedance_indices": list(range(50)),
            "sigma_xy": 0.5, "rho_xy": 0.68, "gamma_xy": 0.4, "r_k": 3.0}
    assert workloads.check_estimate_report(good, 10_000, 0.7, 0.38) is None
    assert "rho_xy" in workloads.check_estimate_report({**good, "rho_xy": 0.1}, 10_000, 0.7, 0.38)
    assert "candidate range" in workloads.check_estimate_report({**good, "k": 1}, 10_000, 0.7, 0.38)
    assert "non-finite" in workloads.check_estimate_report({**good, "gamma_xy": float("nan")}, 10_000, 0.7, 0.38)

    header = "q,chi,chibar,chi_lo,chi_hi,chibar_lo,chibar_hi,raw_chibar"
    rows = [f"{0.5 + 0.02 * i},0.5,0.1,0.4,0.6,0,0.2,0.1" for i in range(3)]
    path = tmp_path / "chi.out"
    path.write_text("\n".join([header, *rows]) + "\n")
    assert workloads.check_chi_csv(path, 3) is None
    assert "rows" in workloads.check_chi_csv(path, 4)
    path.write_text("\n".join([header, *rows[:2], rows[2].replace("0.5,0.1", "1.5,0.1", 1)]) + "\n")
    assert "chi outside" in workloads.check_chi_csv(path, 3)


def _write_pairwise(tmp_path, m, labels, pairs=None):
    lines = ["," + ",".join(labels)] + [lab + "," + ",".join(f"{v:.17g}" for v in row)
                                        for lab, row in zip(labels, m)]
    (tmp_path / "pairwise.out").write_text("\n".join(lines) + "\n")
    n_pairs = len(labels) * (len(labels) - 1) // 2 if pairs is None else pairs
    meta = {"labels": labels, "rho_matrix": m.tolist(), "pairs": [{}] * n_pairs}
    (tmp_path / "pairs.json").write_text(json.dumps(meta))
    return workloads.check_pairwise(tmp_path / "pairwise.out", tmp_path / "pairs.json", labels, [0.3, 0.7, 0.9])


def test_checks_reject_corrupted_pairwise(tmp_path):
    labels = ["p0x", "p0y", "p1x", "p1y", "p2x", "p2y"]
    m = np.eye(6)
    for p, rho in enumerate([0.25, 0.6, 0.7]):
        m[2 * p, 2 * p + 1] = m[2 * p + 1, 2 * p] = rho
    m[0, 3] = m[3, 0] = 0.05
    assert _write_pairwise(tmp_path, m, labels) is None
    assert "15" in _write_pairwise(tmp_path, m, labels, pairs=14)
    bad = m.copy()
    bad[0, 3] = 0.06
    assert "symmetric" in _write_pairwise(tmp_path, bad, labels)
    bad = m.copy()
    bad[2, 3] = bad[3, 2] = 0.1  # dependent pair far from its closed form 0.7
    assert "(p1x, p1y)" in _write_pairwise(tmp_path, bad, labels)
    bad = m.copy()
    bad[0, 4] = bad[4, 0] = 0.5  # independent files look dependent
    assert "(p0x, p2x)" in _write_pairwise(tmp_path, bad, labels)
    bad = m.copy()
    bad[1, 1] = 0.99
    assert "diagonal" in _write_pairwise(tmp_path, bad, labels)


def test_checks_reject_corrupted_experiment():
    row = {"rho_xy_target": 0.7, "n": 2000, "reps": 998, "failed": 2, "bias": 0.02}
    assert workloads.check_experiment([row], 0.7, 2000, 1000) is None
    assert "reps + failed" in workloads.check_experiment([{**row, "failed": 1}], 0.7, 2000, 1000)
    assert "bias" in workloads.check_experiment([{**row, "bias": 0.2}], 0.7, 2000, 1000)
    assert "bias" in workloads.check_experiment([{**row, "bias": float("nan")}], 0.7, 2000, 1000)
    assert "one experiment row" in workloads.check_experiment([row, row], 0.7, 2000, 1000)


def test_simulate_check_rejects_a_file_off_by_one_ulp(tmp_path):
    wl = workloads.PairCli(seed=4)
    wl.n = 40
    x, y = wl.reference()
    ecc.write_curve_file(tmp_path / "x.csv", x)
    ecc.write_curve_file(tmp_path / "y.csv", y)
    assert wl.check("simulate", tmp_path, tmp_path) is None
    y[3, 7] = np.nextafter(y[3, 7], np.inf)
    ecc.write_curve_file(tmp_path / "y.csv", y)
    assert "y.csv" in wl.check("simulate", tmp_path, tmp_path)


class _Stub(workloads.Workload):
    name = "stub"
    outputs = {"a.out": "a"}

    def __init__(self, replications=0, failed_reps=0):
        super().__init__(seed=0)
        self.replications, self._failed = replications, failed_reps

    def check(self, op, out, inputs):
        return None

    def failed_replications(self, out):
        return self._failed


def test_child_peak_rss_excludes_the_benchmark_process(tmp_path):
    with run.Launcher() as launcher:
        ballast = np.ones(40_000_000 // 8)  # 40 MB held by this process while the child runs
        op = launcher.run("a", [sys.executable, "-c", "pass"], tmp_path)
        assert ballast.sum() > 0
    assert op.code == 0 and op.rss_mb < 40


def test_nonzero_exit_counts_as_a_failed_operation(tmp_path):
    with run.Launcher() as launcher:
        ok = launcher.run("a", [sys.executable, "-c", "print(1)"], tmp_path)
        bad = launcher.run("a", [sys.executable, "-c", "import sys; sys.exit(3)"], tmp_path)
    assert ok.code == 0 and ok.failure is None and ok.cpu_s > 0 and ok.rss_mb > 0
    assert bad.code == 3 and bad.failure == "exit code 3"

    wl = _Stub()
    its = [run.Iteration([ok], 1.0, tmp_path), run.Iteration([bad], 1.0, tmp_path)]
    for it in its:
        run.check_iteration(wl, it, tmp_path)
    assert run.counts(its, wl) == (2, 1)

    mc = _Stub(replications=10, failed_reps=2)
    its = [run.Iteration([ok], 1.0, tmp_path), run.Iteration([bad], 1.0, tmp_path)]
    for it in its:
        run.check_iteration(mc, it, tmp_path)
    # each command is one operation and each replication another; a failed command fails its replications
    assert run.counts(its, mc) == (22, 2 + 1 + 10)


def test_changed_output_fails_the_operation_that_wrote_it(tmp_path):
    ok = run.Op("a", 1.0, 1.0, 1.0, 0)
    again = run.Op("a", 1.0, 1.0, 1.0, 0)
    its = [run.Iteration([ok], 1.0, tmp_path), run.Iteration([again], 1.0, tmp_path)]
    its[0].hashes, its[1].hashes = {"a.out": "h1"}, {"a.out": "h2"}
    run.mark_nondeterministic(its, _Stub())
    assert ok.failure is None and "differs" in again.failure


def test_benchmark_json_names_the_metrics_the_code_reports():
    spec = run.SPEC
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "cpu_s", "peak_rss_mb", "ok_ratio", "setup_s"]
    expected = ["cli.import_s"] + [f"{layer}.{q}" for layer, qs in run.PER_LAYER for q in qs]
    expected += ["simulate.pool_speedup", "trace.overhead_s", "trace.coverage"]
    assert [m["name"] for m in spec["per_layer"]] == expected


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(base, [v * 1.01 for v in base], 0.1, "lower") == "unchanged"
    assert compare.verdict(base, [v * 1.2 for v in base], 0.1, "lower") == "worse"
    assert compare.verdict(base, [v * 0.8 for v in base], 0.1, "lower") == "better"
    assert compare.verdict(base, [v * 0.8 for v in base], 0.1, "higher") == "worse"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(base, noisy, 0.1, "lower") == "unresolved"
    assert compare.verdict(noisy, [v * 0.7 for v in noisy], 0.1, "lower") == "unresolved"
    assert compare.verdict(noisy, [1.0] * 10, 0.1, "lower") == "better"


def _traced_iteration(tmp_path, name, spans, import_s, wall_s):
    out = tmp_path / name
    out.mkdir()
    (out / "experiment.spans.json").write_text(json.dumps({"import_s": import_s, "spans": spans}))
    return run.Iteration([run.Op("experiment", wall_s, wall_s, 1.0, 0)], wall_s, out)


def test_trace_metrics_derive_pool_idle_speedup_and_coverage(tmp_path):
    main = span(0, None, 0.0, 9.0, "cli.main")
    two = [main, span(1, 0, 1.0, 9.0, "simulate.replicate_rho"),
           span(2, 1, 1.0, 8.0, "simulate.draw_paired", on_main=False),
           span(3, 1, 1.5, 7.5, "simulate.draw_paired", on_main=False)]
    one = [main, span(1, 0, 1.0, 17.0, "simulate.replicate_rho"), span(2, 1, 1.0, 16.0, "simulate.draw_paired")]
    traced = [_traced_iteration(tmp_path, "t2", two, 0.5, 10.0), _traced_iteration(tmp_path, "t1", one, 0.5, 18.0)]
    metrics, coverage, top = run.trace_metrics(workloads.ExperimentCell(seed=0), traced, untraced_wall=9.0)
    assert metrics["simulate.replicate_rho.busy_s"][0] == pytest.approx(13.0)
    assert metrics["simulate.replicate_rho.pool_idle_s"][0] == pytest.approx(2 * 8.0 - 13.0)
    assert metrics["simulate.replicate_rho.self_s"][0] == pytest.approx(1.0)
    assert metrics["simulate.draw_paired.calls"] == (2, "count")
    assert metrics["simulate.pool_speedup"][0] == pytest.approx(16.0 / 8.0)
    assert metrics["trace.overhead_s"][0] == pytest.approx(1.0)
    assert coverage == pytest.approx((0.5 + 9.0) / 10.0)
    assert top == "simulate.draw_paired"
    assert metrics["curveio.parse_curve_file.calls"] == (0, "count")
