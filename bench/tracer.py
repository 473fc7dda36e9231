"""Outside-in span tracing of the ``ecc`` CLI, and the arithmetic on its spans.

Run as a script, this file stands in for ``python -m ecc.cli``::

    python3 bench/tracer.py --spans spans.json -- estimate --x x.csv --y y.csv

It times ``import ecc.cli``, replaces each function named in ``LAYERS`` at
every ``ecc`` module namespace that binds it (``norms`` is bound in
``ecc.curves``, ``ecc.estimators``, ``ecc.transform`` and more) with a wrapper
that records a span, runs ``ecc.cli.main`` on the remaining arguments and, at
exit, writes the spans to ``--spans``. The code under test is not modified.

Spans live in memory until exit. A span opened on a thread that has no open
span of its own (a ``replicate_rho`` pool worker) is parented to the
innermost span open on the main thread at that moment, so pool work counts
as a child of ``replicate_rho``.

The functions below the script part (``self_times``, ``aggregate``) turn a
span file into per-layer numbers; the benchmark imports them.
"""
from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

# module -> functions wrapped in the traced run (the benchmark's layers)
LAYERS = {
    "cli": ["main"],
    "curveio": ["parse_curve_file", "format_curves", "write_curve_file"],
    "curves": ["as_sample", "norms", "center", "pair_radii", "inner_products"],
    "tail": ["select_k_mindist", "select_k_ks", "hill", "hill_series"],
    "transform": ["power_transform"],
    "estimators": ["estimate_pipeline", "ecc_report", "order_statistic", "pairwise_matrix"],
    "chi": ["chi_curve"],
    "simulate": ["generate_paired", "draw_paired", "replicate_rho"],
}


def _size_of_path(args, kwargs):
    path = args[0] if args else kwargs.get("path")
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _len_of_values(args, kwargs):
    values = args[0] if args else kwargs.get("values")
    try:
        return len(values)
    except TypeError:
        return 0


# name -> (measure before the call?, function giving the span's size)
_EXTRAS = {
    "curveio.parse_curve_file": (True, _size_of_path),
    "curveio.write_curve_file": (False, _size_of_path),
    "tail.select_k_mindist": (True, _len_of_values),
    "tail.select_k_ks": (True, _len_of_values),
}


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans = []  # [id, name, on_main_thread, parent_id, t0, t1, size]
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        before, size_of = _EXTRAS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            on_main = stack is self._main_stack
            if stack:
                parent = stack[-1]
            elif not on_main and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            span = [next(self._ids), name, on_main, parent, 0.0, 0.0, 0]
            if before:
                span[6] = size_of(args, kwargs)
            stack.append(span[0])
            span[4] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                stack.pop()
                if before is False:
                    span[6] = size_of(args, kwargs)
                self.spans.append(span)

        return traced

    def install(self):
        """Wrap every function in LAYERS at every ecc namespace that binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "ecc" or key.startswith("ecc."))]
        for module, names in LAYERS.items():
            home = sys.modules[f"ecc.{module}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self.wrap(f"{module}.{fname}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)

    def dump(self, path, import_s):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": self.spans}, fh)


def self_times(spans):
    """Map span id -> self time: duration minus the part of it its children cover.

    Children may run on other threads and overlap each other; the covered
    part is the measure of the union of their intervals clipped to the parent.
    """
    children = {}
    for s in spans:
        if s[3] is not None:
            children.setdefault(s[3], []).append((s[4], s[5]))
    out = {}
    for s in spans:
        t0, t1 = s[4], s[5]
        covered, reach = 0.0, t0
        for c0, c1 in sorted(children.get(s[0], ())):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[s[0]] = (t1 - t0) - covered
    return out


def aggregate(trace):
    """Per-layer totals of one traced command.

    Returns ``{name: {"calls", "self_s", "size", "wall_s", "busy_s"}}`` plus
    the main-thread root span time (``root_s``). ``busy_s`` is the summed
    duration of a span's direct children on any thread (the work a pool did
    inside it); ``wall_s`` is the summed duration of the span itself.
    """
    spans = trace["spans"]
    selfs = self_times(spans)
    child_time = {}
    for s in spans:
        if s[3] is not None:
            child_time[s[3]] = child_time.get(s[3], 0.0) + (s[5] - s[4])
    layers = {}
    root_s = 0.0
    for s in spans:
        row = layers.setdefault(s[1], {"calls": 0, "self_s": 0.0, "size": 0,
                                       "wall_s": 0.0, "busy_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[s[0]]
        row["size"] += s[6]
        row["wall_s"] += s[5] - s[4]
        row["busy_s"] += child_time.get(s[0], 0.0)
        if s[3] is None and s[2]:
            root_s += s[5] - s[4]
    return layers, root_s


def _main(argv):
    if len(argv) < 3 or argv[0] != "--spans" or "--" not in argv:
        sys.stderr.write("usage: tracer.py --spans FILE -- ECC_ARGS...\n")
        return 2
    spans_path = argv[1]
    cli_args = argv[argv.index("--") + 1:]
    t_start = time.perf_counter()
    import ecc.cli

    import_s = time.perf_counter() - t_start
    tracer = Tracer()
    tracer.install()
    try:
        return ecc.cli.main(cli_args)
    finally:
        tracer.dump(spans_path, import_s)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
