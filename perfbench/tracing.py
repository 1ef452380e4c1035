"""Spans and counts around permprod's public functions, from outside the program.

``install`` replaces each traced function with a wrapper at every module
attribute of the ``permprod`` package that holds it, so a call reaches the
wrapper whatever name the caller imported it under (``permprod.stats``
calls ``product_rows`` through its own module global, for example).
Nothing in ``src/`` changes.

Span wrappers keep (name, start, end, parent) in memory; count-only
wrappers, used for the hot tiny functions, only bump a counter. The job
writes everything out once, when the CLI call has returned. ``summarize``
turns the written spans into per-name call counts, total time and self
time (duration minus the time covered by direct child spans).

The traced program is single-threaded and does no I/O while computing, so
no layer ever waits for another: there is no "waited" time to record.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Traced functions as (module, attribute, span name). Methods are given as
# "Class.method". draw_batch is the parent of every sampler kernel, so the
# stats loops' self time excludes sampling whichever kernel a law uses.
SPANS = (
    ("permprod.samplers", "SamplerSpec.draw_batch", "samplers.draw_batch"),
    ("permprod.samplers", "ewens_rows", "samplers.ewens_rows"),
    ("permprod.samplers", "sqrt_fixed_rows", "samplers.sqrt_fixed_rows"),
    ("permprod.samplers", "product_rows", "samplers.product_rows"),
    ("permprod.samplers", "small_cycle_counts", "samplers.small_cycle_counts"),
    ("permprod.stats", "moment_estimates", "stats.moment_estimates"),
    ("permprod.stats", "sample_joint_counts", "stats.sample_joint_counts"),
    ("permprod.stats", "empirical_joint_pmf", "stats.empirical_joint_pmf"),
    ("permprod.stats", "eta_joint_pmf", "stats.eta_joint_pmf"),
    ("permprod.stats", "tv_distance", "stats.tv_distance"),
    ("permprod.oracle", "product_type_distribution", "oracle.product_type_distribution"),
    ("permprod.oracle", "verify_bounds", "oracle.verify_bounds"),
    ("permprod.oracle", "exact_graph_prob", "oracle.exact_graph_prob"),
    ("permprod.sweeps", "sweep_trace_identity", "sweeps.sweep_trace_identity"),
    ("permprod.sweeps", "sweep_traversal_consistency", "sweeps.sweep_traversal_consistency"),
    ("permprod.sweeps", "sweep_shared_cycle", "sweeps.sweep_shared_cycle"),
    ("permprod.sweeps", "sweep_reversal_symmetry", "sweeps.sweep_reversal_symmetry"),
    ("permprod.sweeps", "sweep_small_components", "sweeps.sweep_small_components"),
    ("permprod.sweeps", "sweep_event_factorization", "sweeps.sweep_event_factorization"),
    ("permprod.sweeps", "sweep_relabel_dichotomy", "sweeps.sweep_relabel_dichotomy"),
    ("permprod.sweeps", "sweep_membership_bounds", "sweeps.sweep_membership_bounds"),
    ("permprod.sweeps", "sweep_prefix_decay", "sweeps.sweep_prefix_decay"),
    ("permprod.cli", "emit_report", "cli.emit_report"),
)

# Called hundreds of thousands of times per job: counted, not timed.
COUNTERS = (
    ("permprod.cyclegraphs", "traversal", "cyclegraphs.traversal"),
    ("permprod.perms", "all_permutations", "perms.all_permutations"),
)


def _product_rows_bytes(args, result) -> int:
    # Each of the F-1 gathers reads the running product and one factor
    # and writes a new product, all of the output's shape and dtype.
    return 3 * (len(args[0]) - 1) * result.nbytes


def _small_cycle_counts_bytes(args, result) -> int:
    # kmax fixed-point comparisons read one power each; the kmax-1
    # compositions each read two arrays and write one.
    rows, kmax = args[0], args[1]
    return (kmax + 3 * (kmax - 1)) * rows.nbytes


class Tracer:
    """In-memory spans, call counts and computed per-call quantities."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.computed: dict[str, int] = {}
        self._stack = [-1]
        self._traversal_keys: set = set()

    def _add(self, key: str, value: int) -> None:
        self.computed[key] = self.computed.get(key, 0) + value

    def _after(self, name: str, args, result) -> None:
        if name == "samplers.draw_batch":
            self._add("samplers.rows_drawn", result.shape[0])
            self.computed["samplers.max_batch_bytes"] = max(
                self.computed.get("samplers.max_batch_bytes", 0), result.nbytes
            )
        elif name == "samplers.product_rows":
            self._add("samplers.product_rows.bytes", _product_rows_bytes(args, result))
        elif name == "samplers.small_cycle_counts":
            self._add(
                "samplers.small_cycle_counts.bytes",
                _small_cycle_counts_bytes(args, result),
            )
        elif name == "cli.emit_report":
            self._add("cli.report_bytes", len(result.encode()))

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), 0, stack[-1]]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            self._after(name, args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)
        keys = self._traversal_keys if name == "cyclegraphs.traversal" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if keys is not None:
                sigma, rho, m = args
                keys.add((sigma.images, rho.images, m))
            return fn(*args, **kwargs)

        return wrapper

    def dump(self) -> dict:
        computed = dict(self.computed)
        computed["cyclegraphs.traversal.distinct"] = len(self._traversal_keys)
        return {"spans": self.spans, "counts": self.counts, "computed": computed}


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def install(tracer: Tracer) -> None:
    """Swap every traced function for its wrapper under all its names."""
    replacements = {}
    for table, make in ((SPANS, tracer.span), (COUNTERS, tracer.counter)):
        for module, attr, name in table:
            owner, leaf = _resolve(module, attr)
            original = getattr(owner, leaf)
            wrapper = make(name, original)
            if isinstance(owner, type):
                setattr(owner, leaf, wrapper)
            else:
                replacements[id(original)] = (original, wrapper)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "permprod" or mod_name.startswith("permprod.")):
            continue
        for key, value in list(vars(mod).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, key, hit[1])


def summarize(doc: dict) -> dict:
    """Per span name: calls, total seconds and self seconds.

    Self time is a span's duration minus that of its direct children. The
    traced job runs on one thread, so sibling spans never overlap and their
    durations add up to the part of the parent they cover.
    """
    spans = doc["spans"]
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict] = {}
    for (name, start, end, _), covered in zip(spans, child_ns):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += (end - start) / 1e9
        entry["self_s"] += (end - start - covered) / 1e9
    return out


def write(path: str, tracer: Tracer) -> None:
    with open(path, "w") as fh:
        json.dump(tracer.dump(), fh)
