"""The three workloads: how each prepares its inputs, what it runs, how its outputs are checked.

Every command runs as a fresh ``python -m ecc.cli`` interpreter, because a
CLI user pays the import on every command. The program sees only the files
and configs written here; the seed picks them.

- ``pair_cli``: the README's analysis loop on one pair (simulate, estimate,
  chi) at n = 10 000, J = 100. It is the I/O-heavy workload: two ~20 MB
  files written, then read twice.
- ``pairwise_ks``: the pairwise matrix over m = 6 files (three dependent
  pairs, n = 2000) with the KS k rule. It is dominated by ``select_k_ks``,
  redoes the marginal stage per pair and fires the tail-equivalence transform.
- ``experiment_cell``: one Monte Carlo cell of 1000 replications on a
  2-thread pool. It parses no curve files at all.

Output checks are untimed. Their tolerances come from the spread of each
statistic across seeds at the first commit that carries this benchmark
(440 seeds of pair_cli, 125 of pairwise_ks, 30 of experiment_cell): each is
1.5 times the largest deviation seen, so a correct program is unlikely to
fail on any seed while a broken pairing, sign or sum (rho near 0) fails.
"""
from __future__ import annotations

import json
import math
from hashlib import sha256
from pathlib import Path

import numpy as np

import ecc

# pair_cli: |rho_xy - 0.7| reached 0.318 (mindist can pick k as small as 2)
PAIR_RHO_TOL = 0.48
# pairwise_ks: |rho - closed form| per dependent pair reached 0.147, 0.180 and 0.429
# (the KS rule with the transform is biased low at n = 2000); |rho| across pairs reached 0.0997
PAIRWISE_PAIR_TOL = (0.23, 0.28, 0.65)
PAIRWISE_CROSS_TOL = 0.15
# experiment_cell: |mean rho_hat - 0.7| over 1000 replications reached 0.0255 (sd 0.0043)
EXPERIMENT_BIAS_BOUND = 0.04


def mindist_k_max(n: int) -> int:
    """Top of the default mindist candidate range, as ``ecc.tail`` sets it."""
    return min(max(3, int(0.15 * n)), n - 1)


def _read_matrix_csv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    labels = lines[0].split(",")[1:]
    rows, row_labels = [], []
    for line in lines[1:]:
        cells = line.split(",")
        row_labels.append(cells[0])
        rows.append([float(c) for c in cells[1:]])
    return labels, row_labels, np.array(rows)


class Workload:
    """One workload at one seed: ``prepare`` writes inputs, ``commands`` lists the CLI calls."""

    name = ""
    outputs: dict[str, str] = {}  # output file -> operation that writes it
    replications = 0  # Monte Carlo replications counted as operations per command
    threads = 1  # worker threads the program is asked for

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, inputs: Path) -> None:
        """Write the inputs the commands read into ``inputs`` (timed as set-up)."""

    def commands(self, inputs: Path, threads: int | None = None) -> list[tuple[str, list[str]]]:
        """(operation name, ecc argv) pairs; each runs in the iteration directory.

        ``threads`` overrides the workload's thread count where it has one.
        """
        raise NotImplementedError

    def check(self, op: str, out: Path, inputs: Path) -> str | None:
        """Why the output of ``op`` in ``out`` is wrong, or None when it is right."""
        raise NotImplementedError

    def failed_replications(self, out: Path) -> int:
        return 0

    def sizes(self, inputs: Path, out: Path) -> dict:
        raise NotImplementedError


class PairCli(Workload):
    name = "pair_cli"
    outputs = {"x.csv": "simulate", "y.csv": "simulate", "estimate.out": "estimate", "chi.out": "chi"}
    n, J, alpha, rho_xy = 10_000, 100, 3.0, 0.7
    q_count = 25  # the CLI's default q grid 0.5:0.98:0.02

    def __init__(self, seed):
        super().__init__(seed)
        self._verified = {}  # file name -> sha256 of bytes already checked bit-identical

    def commands(self, inputs, threads=None):
        return [
            ("simulate", ["simulate", "--rho-xy", str(self.rho_xy), "--alpha", "3", "--n", str(self.n),
                          "--J", str(self.J), "--seed", str(self.seed),
                          "--out-x", "x.csv", "--out-y", "y.csv"]),
            ("estimate", ["estimate", "--x", "x.csv", "--y", "y.csv"]),
            ("chi", ["chi", "--x", "x.csv", "--y", "y.csv"]),
        ]

    def reference(self):
        cfg = ecc.DgpConfig(rho=ecc.invert_oracle(self.rho_xy, self.alpha), alpha=self.alpha,
                            n=self.n, J=self.J, seed=self.seed)
        return ecc.generate_paired(cfg)

    def check(self, op, out, inputs):
        if op == "simulate":
            return self._check_simulate(out)
        if op == "estimate":
            return check_estimate_report(json.loads((out / "estimate.out").read_text()),
                                         self.n, self.rho_xy, PAIR_RHO_TOL)
        return check_chi_csv(out / "chi.out", self.q_count)

    def _check_simulate(self, out):
        pending = {}
        for fname in ("x.csv", "y.csv"):
            digest = sha256((out / fname).read_bytes()).hexdigest()
            if self._verified.get(fname) != digest:
                pending[fname] = digest
        if not pending:
            return None
        ref = dict(zip(("x.csv", "y.csv"), self.reference()))
        for fname, digest in pending.items():
            got = np.loadtxt(out / fname, delimiter=",", dtype=float, ndmin=2)
            if got.shape != ref[fname].shape or got.tobytes() != ref[fname].tobytes():
                return f"{fname} does not parse back bit-identical to generate_paired"
            self._verified[fname] = digest
        return None

    def sizes(self, inputs, out):
        read = sum((out / f).stat().st_size for f in ("x.csv", "y.csv") if (out / f).exists())
        return {"n": self.n, "J": self.J, "m": 2, "input_bytes": read}


def check_estimate_report(rep: dict, n: int, target: float, tol: float) -> str | None:
    """Check an ``ecc estimate`` JSON report against the closed form and the k range."""
    k_max = mindist_k_max(n)
    for where, k in (("radii", rep["k"]), ("tail_x", rep["tail_x"]["k"]), ("tail_y", rep["tail_y"]["k"])):
        if not 2 <= k <= k_max:
            return f"{where} k={k} outside the candidate range [2, {k_max}]"
    if len(rep["exceedance_indices"]) < rep["k"]:
        return "fewer exceedance indices than k"
    if not all(math.isfinite(rep[key]) for key in ("sigma_xy", "rho_xy", "gamma_xy", "r_k")):
        return "non-finite estimate"
    if abs(rep["rho_xy"] - target) > tol:
        return f"rho_xy={rep['rho_xy']:.4f} is more than {tol} from the closed form {target}"
    return None


def check_chi_csv(path: Path, q_count: int) -> str | None:
    """Check an ``ecc chi`` CSV: one row per q and every chi in [0, 1]."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "q,chi,chibar,chi_lo,chi_hi,chibar_lo,chibar_hi,raw_chibar":
        return "chi CSV header is wrong"
    if len(lines) - 1 != q_count:
        return f"chi CSV has {len(lines) - 1} rows, expected {q_count}"
    chi = np.array([float(line.split(",")[1]) for line in lines[1:]])
    if not np.all((chi >= 0.0) & (chi <= 1.0)):
        return "chi outside [0, 1]"
    return None


class PairwiseKs(Workload):
    name = "pairwise_ks"
    outputs = {"pairwise.out": "pairwise", "pairs.json": "pairwise"}
    n, J = 2000, 100
    pairs = ((2.5, 0.3), (3.0, 0.7), (4.5, 0.9))  # (alpha, closed-form rho_xy) per dependent pair

    def files(self, inputs: Path) -> list[Path]:
        return [inputs / f"p{p}{margin}.csv" for p in range(len(self.pairs)) for margin in "xy"]

    def prepare(self, inputs):
        paths = iter(self.files(inputs))
        for p, (alpha, rho_xy) in enumerate(self.pairs):
            cfg = ecc.DgpConfig(rho=ecc.invert_oracle(rho_xy, alpha), alpha=alpha, n=self.n,
                                J=self.J, seed=self.seed * len(self.pairs) + p)
            for sample in ecc.generate_paired(cfg):
                ecc.write_curve_file(next(paths), sample)

    def commands(self, inputs, threads=None):
        return [("pairwise", ["pairwise", "--kselect", "ks", "--json", "pairs.json", "--inputs",
                              *map(str, self.files(inputs))])]

    def check(self, op, out, inputs):
        return check_pairwise(out / "pairwise.out", out / "pairs.json",
                              [f.stem for f in self.files(inputs)],
                              [rho for _, rho in self.pairs])

    def sizes(self, inputs, out):
        return {"n": self.n, "J": self.J, "m": 2 * len(self.pairs),
                "input_bytes": sum(f.stat().st_size for f in self.files(inputs))}


def check_pairwise(matrix_csv: Path, meta_json: Path, labels: list[str], closed_forms) -> str | None:
    """Check the pairwise matrix and its JSON against symmetry, range and the closed forms.

    Files 2p and 2p+1 form dependent pair p with closed form ``closed_forms[p]``;
    files of different pairs are independent, so their entries should be near 0.
    """
    head, row_labels, m = _read_matrix_csv(matrix_csv)
    size = len(labels)
    if head != labels or row_labels != labels or m.shape != (size, size):
        return f"matrix labels or shape wrong: {m.shape}"
    if not np.array_equal(m, m.T):
        return "matrix is not symmetric"
    if not np.all(np.diag(m) == 1.0):
        return "matrix diagonal is not 1"
    if np.any(np.abs(m) > 1.0):
        return "matrix entry outside [-1, 1]"
    for a in range(size):
        for b in range(a + 1, size):
            if a // 2 == b // 2:
                tol, target = PAIRWISE_PAIR_TOL[a // 2], closed_forms[a // 2]
            else:
                tol, target = PAIRWISE_CROSS_TOL, 0.0
            if abs(m[a, b] - target) > tol:
                return f"entry ({labels[a]}, {labels[b]}) = {m[a, b]:.4f} is more than {tol} from {target}"
    meta = json.loads(meta_json.read_text(encoding="utf-8"))
    if len(meta["pairs"]) != size * (size - 1) // 2:
        return f"JSON lists {len(meta['pairs'])} pairs, expected {size * (size - 1) // 2}"
    if meta["labels"] != labels or not np.array_equal(np.array(meta["rho_matrix"]), m):
        return "JSON labels or rho_matrix differ from the matrix CSV"
    return None


class ExperimentCell(Workload):
    name = "experiment_cell"
    outputs = {"experiment.out": "experiment", "experiment.json": "experiment"}
    n, J, alpha, rho_xy, reps = 2000, 100, 3.0, 0.7, 1000
    replications = reps
    threads = 2  # fixed, so the workload is the same on every host

    def prepare(self, inputs):
        (inputs / "experiment.cfg").write_text(
            f"rho_xy = {self.rho_xy}\nalpha = 3\nn = {self.n}\nreps = {self.reps}\n"
            f"seed = {self.seed}\nk_method = mindist\n", encoding="utf-8")

    def commands(self, inputs, threads=None):
        return [("experiment", ["experiment", "--config", str(inputs / "experiment.cfg"),
                                "--threads", str(threads or self.threads),
                                "--out-json", "experiment.json"])]

    def _row(self, out):
        return json.loads((out / "experiment.json").read_text(encoding="utf-8"))["rows"]

    def check(self, op, out, inputs):
        return check_experiment(self._row(out), self.rho_xy, self.n, self.reps)

    def failed_replications(self, out):
        return sum(row["failed"] for row in self._row(out))

    def sizes(self, inputs, out):
        return {"n": self.n, "J": self.J, "m": 2,
                "input_bytes": (inputs / "experiment.cfg").stat().st_size}


def check_experiment(rows: list, target: float, n: int, reps: int) -> str | None:
    """Check an experiment JSON row list: one cell, every replication accounted for, small bias."""
    if len(rows) != 1:
        return f"expected one experiment row, got {len(rows)}"
    row = rows[0]
    if row["rho_xy_target"] != target or row["n"] != n:
        return "experiment row is for the wrong cell"
    if row["reps"] + row["failed"] != reps:
        return f"reps + failed = {row['reps'] + row['failed']}, expected {reps}"
    if not row["bias"] < EXPERIMENT_BIAS_BOUND:
        return f"bias {row['bias']:.4f} is not under {EXPERIMENT_BIAS_BOUND}"
    return None


WORKLOADS = {w.name: w for w in (PairCli, PairwiseKs, ExperimentCell)}
