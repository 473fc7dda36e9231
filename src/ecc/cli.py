"""Command-line front end.

Subcommands: estimate, pairwise, hill, chi, simulate, experiment, transform,
resample. Curve files are CSV (rows = curves, columns = grid points). Reports
are JSON with a top-level schema_version; series and tables are CSV; ``-`` is
stdout on every output flag. Errors print a JSON object naming the failing
operation to stderr and exit with 2 for parse problems and unwritable outputs,
3 for domain/degenerate-data problems, and 1 for anything else.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .chi import chi_curve
from .curves import _centered_norms
from .curveio import _csv_blocks, parse_curve_file, read_text, resample_linear
from .errors import DomainError, EccError, ParseError
from .estimators import PipelineReport, estimate_pipeline, pairwise_matrix
from .simulate import DgpConfig, ExperimentTable, bias_experiment, generate_paired, invert_oracle
from .tail import K_METHODS, hill_series
from .transform import power_transform

SCHEMA_VERSION = 1

_PARSE_EXIT = 2
_DOMAIN_EXIT = 3
_INTERNAL_EXIT = 1

QGRID_MAX_POINTS = 10_000  # the most points a --qgrid may span, counted before any is made


def _write(fh, output) -> None:
    """Write a text, or a sample as a curve file a block of rows at a time, to an open text file."""
    fh.writelines([output] if isinstance(output, str) else _csv_blocks(output))


def _is_stdout(path) -> bool:
    """Whether ``path`` names stdout: None, "-", or the file that file descriptor 1 is open on."""
    if path is None or path == "-":
        return True
    try:
        return os.path.samestat(os.stat(path), os.fstat(1))
    except OSError:
        return False


def _staging_target(path: str) -> str | None:
    """The file that a staged write of ``path`` replaces, or None to write ``path`` straight through.

    A new path or a regular file is staged; a symlink to one stages the file
    it resolves to, so the link stays. Any other existing target (a
    directory, a device, a FIFO, /dev/stdout on a pipe) is not.
    """
    target = os.path.realpath(path)
    if not os.path.exists(path):
        return target
    if os.path.isfile(path) and os.path.exists(target) and os.path.samefile(path, target):
        return target
    return None


def _emit(*outputs) -> None:
    """Write (output, path) pairs: a text, or a sample as a curve file, to ``path`` (None or "-": stdout).

    Each file that ``_staging_target`` stages is written to a temporary beside
    it, with the mode of the file it replaces, and the temporaries are moved
    into place only once every file output is written: an unwritable output
    (exit 2, naming its path) leaves no new or partial file behind, and no
    temporary outlives the call. Other targets are written straight through
    before the moves; stdout comes last. A path to the file stdout is open on
    (/dev/stdout redirected to a file) is written through stdout, so what
    else goes to that file is kept.
    """
    to_stdout = [_is_stdout(path) for _, path in outputs]
    staged = []  # (temporary, target, path) of each new or regular file
    path = None
    try:
        direct = []
        for i, (output, path) in enumerate(outputs):
            if to_stdout[i]:
                continue
            target = _staging_target(path)
            if target is None:
                direct.append((output, path))
                continue
            mode = None
            if os.path.exists(target):
                with open(target, "a") as probe:  # fails, as writing would, on a read-only file
                    mode = stat.S_IMODE(os.fstat(probe.fileno()).st_mode)
            tmp = f"{target}.{os.getpid()}-{i}.tmp"  # per output: two flags may name one path, the last wins
            with open(tmp, "x", encoding="utf-8") as fh:
                staged.append((tmp, target, path))
                if mode is not None:
                    os.chmod(tmp, mode)
                _write(fh, output)
        for output, path in direct:
            with open(path, "w", encoding="utf-8") as fh:
                _write(fh, output)
        while staged:
            tmp, target, path = staged[0]
            os.replace(tmp, target)
            del staged[0]
    except OSError as exc:
        raise ParseError(f"{path}: cannot write ({exc.strerror or exc})") from None
    finally:
        for tmp, _, _ in staged:
            with contextlib.suppress(OSError):
                os.remove(tmp)
    for (output, _), stdout in zip(outputs, to_stdout):
        if stdout:
            _write(sys.stdout, output)


def _pipeline_report_dict(rep: PipelineReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        **asdict(rep.ecc),
        "exceedance_indices": rep.ecc.exceedance_indices.tolist(),
        "k_method": rep.k_method,
        "centered": rep.centered,
        "tail_x": asdict(rep.tail_x),
        "tail_y": asdict(rep.tail_y),
        "transformed": rep.transformed,
        "alpha_target": rep.alpha_target,
        "tau": rep.tau,
    }


def _columns_csv(header: str, *columns) -> str:
    lines = [header] + [",".join(f"{v:.17g}" for v in row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--k", type=int, default=None, help="fixed exceedance count")
    group.add_argument("--kselect", choices=["mindist", "ks"], default="mindist",
                       help="automatic k selection rule (default mindist)")
    p.add_argument("--alpha-target", type=float, default=3.0,
                   help="common tail index for the tail-equivalence transform (default 3)")
    p.add_argument("--tau", type=float, default=0.5,
                   help="tail-equivalence tolerance on |alpha_x - alpha_y| (default 0.5)")
    p.add_argument("--no-center", action="store_true", help="skip centering by the sample mean curves")


def _pipeline_kwargs(args) -> dict:
    return {
        "k": args.k,
        "k_method": args.kselect,  # the pipeline switches to "fixed" when k is given
        "alpha_target": args.alpha_target,
        "tau": args.tau,
        "do_center": not args.no_center,
    }


def _cmd_estimate(args) -> int:
    x = parse_curve_file(args.x)
    y = parse_curve_file(args.y)
    rep = estimate_pipeline(x, y, **_pipeline_kwargs(args))
    sys.stdout.write(json.dumps(_pipeline_report_dict(rep), indent=2) + "\n")
    return 0


def _cmd_pairwise(args) -> int:
    if len(args.inputs) < 2:
        raise DomainError("pairwise needs at least two input files")
    samples = [parse_curve_file(p) for p in args.inputs]
    labels = [Path(p).stem for p in args.inputs]
    matrix, reports = pairwise_matrix(samples, return_reports=True, **_pipeline_kwargs(args))
    lines = ["," + ",".join(labels)]
    for lab, row in zip(labels, matrix):
        lines.append(lab + "," + ",".join(f"{v:.17g}" for v in row))
    outputs = [("\n".join(lines) + "\n", args.output)]
    if args.json is not None:
        meta = {
            "schema_version": SCHEMA_VERSION,
            "labels": labels,
            "rho_matrix": matrix.tolist(),
            "pairs": [
                {"a": labels[a], "b": labels[b], **_pipeline_report_dict(rep)}
                for (a, b), rep in sorted(reports.items())
            ],
        }
        outputs.append((json.dumps(meta, indent=2) + "\n", args.json))
    _emit(*outputs)
    return 0


def _margin_norms(sample, no_center: bool) -> np.ndarray:
    """The norms of a parsed sample's curves, about its mean curve unless ``no_center``."""
    return _centered_norms(sample, None if no_center else sample.mean(axis=0))


def _cmd_hill(args) -> int:
    sample = parse_curve_file(args.input)
    values = _margin_norms(sample, args.no_center)
    k_max = args.kmax if args.kmax is not None else values.size - 1
    series = hill_series(values, k_max)
    _emit((_columns_csv("k,alpha,lo,hi", series.k, series.alpha_hat, series.ci_low, series.ci_high),
           args.output))
    return 0


def _parse_qgrid(arg: str) -> np.ndarray:
    try:
        start, stop, step = (float(tok) for tok in arg.split(":"))
    except ValueError:
        raise ParseError(f"--qgrid expects start:stop:step, got {arg!r}") from None
    if not (step > 0 and stop >= start  # np.arange's length below is nan or inf if a value is not finite
            and (stop + step * 0.5 - start) / step <= QGRID_MAX_POINTS):
        raise DomainError(f"--qgrid {arg!r} needs finite start <= stop, step > 0 and at most "
                          f"{QGRID_MAX_POINTS} points")
    grid = np.arange(start, stop + step * 0.5, step)
    return grid[(grid > 0.0) & (grid < 1.0)]


def _cmd_chi(args) -> int:
    x = parse_curve_file(args.x)
    y = parse_curve_file(args.y)
    series = chi_curve(_margin_norms(x, args.no_center), _margin_norms(y, args.no_center),
                       _parse_qgrid(args.qgrid))
    names = ("q", "chi", "chibar", "chi_lo", "chi_hi", "chibar_lo", "chibar_hi", "raw_chibar")
    _emit((_columns_csv(",".join(names), *(getattr(series, c) for c in names)), args.output))
    return 0


def _parse_variant(arg: str) -> dict:
    if arg == "base":
        return {"variant": "base"}
    if arg.startswith("bernoulli:"):
        try:
            p_a, p_b = (float(tok) for tok in arg.split(":", 1)[1].split(","))
        except ValueError:
            raise ParseError(f"expected bernoulli:pA,pB, got {arg!r}") from None
        return {"variant": "bernoulli", "p_a": p_a, "p_b": p_b}
    if arg.startswith("phase:"):
        try:
            delta = float(arg.split(":", 1)[1])
        except ValueError:
            raise ParseError(f"expected phase:delta, got {arg!r}") from None
        return {"variant": "phase", "delta": delta}
    raise ParseError(f"unknown variant {arg!r}")


def _cmd_simulate(args) -> int:
    extra = _parse_variant(args.variant)
    rho = 0.0
    if extra["variant"] != "bernoulli":
        rho = invert_oracle(args.rho_xy, args.alpha)
    cfg = DgpConfig(rho=rho, alpha=args.alpha, n=args.n, J=args.J, seed=args.seed, **extra)
    x, y = generate_paired(cfg)
    _emit((x, args.out_x), (y, args.out_y))
    return 0


def _parse_config(path: str) -> dict:
    cfg: dict[str, str] = {}
    for i, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}: expected key = value", row=i)
        key, value = (part.strip() for part in line.split("=", 1))
        cfg[key.lower()] = value
    return cfg


def _cfg_list(cfg: dict, key: str, conv, default=None):
    if key not in cfg:
        if default is None:
            raise ParseError(f"experiment config is missing required key {key!r}")
        return default
    try:
        return [conv(tok.strip()) for tok in cfg[key].split(",") if tok.strip()]
    except ValueError:
        raise ParseError(f"bad value for config key {key!r}: {cfg[key]!r}") from None


def _cfg_one(cfg: dict, key: str, conv, default=None):
    values = _cfg_list(cfg, key, conv, None if default is None else [default])
    if len(values) != 1:
        raise ParseError(f"config key {key!r} takes exactly one value, got {len(values)}")
    return values[0]


def _cmd_experiment(args) -> int:
    cfg = _parse_config(args.config)
    targets = _cfg_list(cfg, "rho_xy", float)
    alphas = _cfg_list(cfg, "alpha", float)
    ns = _cfg_list(cfg, "n", int)
    reps = _cfg_one(cfg, "reps", int)
    seed = _cfg_one(cfg, "seed", int)  # required: runs must be reproducible
    k_method = cfg.get("k_method", "mindist")
    if k_method not in K_METHODS:
        raise ParseError(f"bad k_method {k_method!r}")
    k_fixed = _cfg_one(cfg, "k", int) if k_method == "fixed" else None
    J = _cfg_one(cfg, "j", int, default=100)
    noise_variance = _cfg_one(cfg, "noise_variance", float, default=0.25)

    threads = args.threads
    if threads is None:
        env = os.environ.get("ECC_THREADS", "1")
        try:
            threads = int(env)
        except ValueError:
            raise ParseError(f"ECC_THREADS must be an integer, got {env!r}") from None

    rows = []
    for cell, alpha in enumerate(alphas):
        for j, n in enumerate(ns):
            table = bias_experiment(
                targets, alpha=alpha, n=n, reps=reps, k_method=k_method,
                seed=seed + 1_000_003 * (cell * len(ns) + j), J=J,
                k_fixed=k_fixed, threads=threads, noise_variance=noise_variance,
            )
            rows.extend(table.rows)
    table = ExperimentTable(rows=rows)
    outputs = [(table.to_wide_csv(), args.out_csv)]
    if args.out_json is not None:
        outputs.append((table.to_json() + "\n", args.out_json))
    _emit(*outputs)
    return 0


def _cmd_transform(args) -> int:
    sample = parse_curve_file(args.input)
    _emit((power_transform(sample, args.alpha_source, args.alpha_target), args.output))
    return 0


def _cmd_resample(args) -> int:
    sample = parse_curve_file(args.input)
    _emit((resample_linear(sample, args.J), args.output))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecc",
        description="Extremal correlation between paired samples of discretized curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="full pipeline on one pair of curve files; JSON report on stdout")
    p.add_argument("--x", required=True, help="curve file for the first margin")
    p.add_argument("--y", required=True, help="curve file for the second margin")
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("pairwise", help="pairwise rho matrix across curve files; CSV on stdout")
    p.add_argument("--inputs", nargs="+", required=True, help="two or more curve files")
    p.add_argument("--output", default=None, help="matrix CSV path (default stdout)")
    p.add_argument("--json", default=None, help="write per-pair JSON metadata to this path")
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_pairwise)

    p = sub.add_parser("hill", help="Hill plot series of the centered-norm tail; CSV on stdout")
    p.add_argument("--input", required=True)
    p.add_argument("--kmax", type=int, default=None, help="largest k in the series (default n-1)")
    p.add_argument("--no-center", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_hill)

    p = sub.add_parser("chi", help="chi/chibar diagnostics of the paired norms; CSV on stdout")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--qgrid", default="0.5:0.98:0.02", help="start:stop:step inside (0,1)")
    p.add_argument("--no-center", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_chi)

    p = sub.add_parser("simulate", help="generate a synthetic paired sample into two curve files")
    p.add_argument("--rho-xy", type=float, default=0.0,
                   help="population extremal correlation target (ignored for bernoulli)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--J", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--variant", default="base", help="base | bernoulli:pA,pB | phase:delta")
    p.add_argument("--out-x", required=True)
    p.add_argument("--out-y", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("experiment", help="Monte Carlo bias table from a key=value config file")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=int, default=None,
                   help="parallel replication workers (default: ECC_THREADS or 1)")
    p.add_argument("--out-csv", default=None, help="wide CSV path (default stdout)")
    p.add_argument("--out-json", default=None, help="full-precision JSON path")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("transform", help="power-transform a curve file to a target tail index")
    p.add_argument("--input", required=True)
    p.add_argument("--alpha-source", type=float, required=True)
    p.add_argument("--alpha-target", type=float, required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("resample", help="linearly resample a curve file onto a new grid")
    p.add_argument("--input", required=True)
    p.add_argument("--J", type=int, required=True, help="target grid size")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_resample)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # other package errors are domain problems; anything else is internal
        code = (_PARSE_EXIT if isinstance(exc, ParseError)
                else _DOMAIN_EXIT if isinstance(exc, EccError) else _INTERNAL_EXIT)
        _print_error(args.command, exc, code)
        return code


def _print_error(operation: str, exc: Exception, code: int) -> None:
    obj = {
        "schema_version": SCHEMA_VERSION,
        "error": {
            "code": code,
            "operation": operation,
            "type": exc.__class__.__name__,
            "message": str(exc),
        },
    }
    sys.stderr.write(json.dumps(obj) + "\n")


if __name__ == "__main__":
    sys.exit(main())
