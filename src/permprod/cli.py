"""Command-line front end: config handling, orchestration, report emission.

A run is described by a flat key = value config, either in a file loaded
with ``--config`` or assembled from command-line flags; flags override
file entries. One table, ``_TEXT``, holds each field's text form: how
file or flag text reads into the value, and how the value is written
back. ``config_from_mapping`` is the only parser of that text: every
flag is taken as a plain string, so a malformed flag value fails with a
``ConfigError`` that names its field, as a malformed file entry does.
Commands that sample need an explicit seed, never an auto-generated
one, so a config determines its output bytes exactly; ``exact`` and
``verify-lemmas`` draw nothing, so for them the seed is optional.
Reports embed the resolved config (minus the output path, which would
break byte-level comparison of reruns) as provenance.

``stats`` and ``sweeps`` are reached through their modules, which the
package registers lazily, so a command executes only the layers it
calls. Their caps are read while validating and only for the commands
whose fields they bound, so a benchmarked command's layers have all
executed before ``run`` starts; only ``sample``, which no cap bounds,
first executes ``stats`` inside ``run``.

Exit codes: 0 success, 1 a verification suite reported violations,
2 malformed config or infeasible parameters.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, dataclass, fields, replace
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from permprod import stats, sweeps
from permprod.oracle import (
    _EXACT_MAX_N,
    ExactDistribution,
    exact_joint_cycle_prob,
    exact_moment,
)
from permprod.samplers import _MAX_N, SamplerSpec, product_rows

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "sampler_from_text",
    "sampler_to_text",
    "serialize_config",
    "config_from_mapping",
    "emit_report",
    "run",
    "main",
]

_COMMANDS = ("sample", "moments", "convergence", "exact", "verify-lemmas", "counterexample")


class ConfigError(ValueError):
    """Invalid configuration; the message starts with the offending field."""


def sampler_to_text(spec: SamplerSpec) -> str:
    if spec.kind == "uniform":
        return "uniform"
    if spec.kind == "ewens":
        return f"ewens:{spec.theta}"
    if spec.kind == "sqrt_fixed":
        return f"sqrt_fixed:{spec.fixed_count}"
    return f"matching_heavy:{spec.two_cycle_fraction}"


def sampler_from_text(text: str) -> SamplerSpec:
    """Parse one sampler descriptor: kind, optionally ':parameter'.

    Accepted forms: ``uniform``, ``ewens:<theta>``, ``sqrt_fixed:<count
    or sqrt>``, ``matching_heavy:<fraction>``; rationals may be written
    as ``1/2``.
    """
    t = text.strip()
    kind, sep, arg = t.partition(":")
    try:
        if kind == "uniform":
            if sep:
                raise ValueError("takes no parameter")
            return SamplerSpec(kind="uniform")
        if kind == "ewens":
            return SamplerSpec(kind="ewens", theta=Fraction(arg))
        if kind == "sqrt_fixed":
            count = "sqrt" if arg.strip() == "sqrt" else int(arg)
            return SamplerSpec(kind="sqrt_fixed", fixed_count=count)
        if kind == "matching_heavy":
            return SamplerSpec(kind="matching_heavy", two_cycle_fraction=Fraction(arg))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"samplers: bad descriptor {text!r}: {exc}") from None
    raise ConfigError(f"samplers: unknown sampler kind {kind!r} in {text!r}")


# Fields meaningful for each command, beyond the universal command, seed,
# output and format. A field outside its command's set must keep its
# default value or the config is rejected.
_APPLICABLE = {
    "sample": {"samplers", "n", "samples"},
    "moments": {"samplers", "n", "samples", "functionals"},
    "convergence": {"samplers", "n_grid", "samples", "functionals", "tv_orders", "truncation"},
    "exact": {"samplers", "n", "v_vec"},
    "verify-lemmas": {"pair_n", "single_n"},
    "counterexample": {"samplers", "n", "samples"},
}

_REQUIRED = {
    "sample": ("seed", "samplers", "n", "samples"),
    "moments": ("seed", "samplers", "n", "samples", "functionals"),
    "convergence": ("seed", "samplers", "n_grid", "samples"),
    "exact": ("samplers", "n", "v_vec"),
    "verify-lemmas": (),
    "counterexample": ("seed", "samplers", "n", "samples"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully resolved run; construction validates everything."""

    command: str
    seed: int | None = None
    samplers: tuple[SamplerSpec, ...] = ()
    n: int | None = None
    n_grid: tuple[int, ...] | None = None
    v_vec: tuple[int, ...] | None = None
    functionals: tuple[stats.Functional, ...] = ()
    tv_orders: tuple[int, ...] = ()
    samples: int | None = None
    truncation: int = 8
    pair_n: int = 5
    single_n: int = 7
    output: str | None = None
    format: str = "csv"

    def __post_init__(self) -> None:
        for name in ("samplers", "functionals", "tv_orders"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("n_grid", "v_vec"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, tuple(value))
        if self.command not in _COMMANDS:
            raise ConfigError(
                f"command: {self.command!r} is not one of {', '.join(_COMMANDS)}"
            )
        # A bool passes as an int, but serializes as True or False, which
        # does not read back.
        scalars = ("seed", "n", "samples", "truncation", "pair_n", "single_n")
        ints = [(name, getattr(self, name)) for name in scalars]
        ints += [(name, v) for name in ("n_grid", "v_vec", "tv_orders") for v in getattr(self, name) or ()]
        for name, value in ints:
            if isinstance(value, bool):
                raise ConfigError(f"{name}: expected an integer, got {value!r}")
        if self.seed is not None and (not isinstance(self.seed, int) or self.seed < 0):
            raise ConfigError("seed: must be a non-negative integer")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format: {self.format!r} is not csv or json")
        allowed = _APPLICABLE[self.command] | {"command", "seed", "output", "format"}
        for f in fields(self):
            if f.name not in allowed and getattr(self, f.name) != f.default:
                raise ConfigError(f"{f.name}: does not apply to command {self.command}")
        for name in _REQUIRED[self.command]:
            value = getattr(self, name)
            if value is None or value == ():
                raise ConfigError(f"{name}: required for command {self.command}")
        if self.n is not None and self.n < 1:
            raise ConfigError("n: must be >= 1")
        if self.samples is not None and self.samples < 1:
            raise ConfigError("samples: must be >= 1")
        if self.n_grid is not None and (
            not self.n_grid
            or any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:]))
            or self.n_grid[0] < 1
        ):
            raise ConfigError("n_grid: must be a strictly increasing list of sizes")
        # Sampled rows are int32; checked before any size reaches a sampler.
        for name, size in (("n", self.n), ("n_grid", max(self.n_grid or (1,)))):
            if size is not None and size > _MAX_N:
                raise ConfigError(f"{name}: sizes above {_MAX_N} do not fit int32 rows")
        if self.v_vec is not None and (not self.v_vec or any(v < 1 for v in self.v_vec)):
            raise ConfigError("v_vec: cycle lengths must be >= 1")
        if any(k < 1 for k in self.tv_orders):
            raise ConfigError("tv_orders: joint orders must be >= 1")
        if self.truncation < 0:
            raise ConfigError("truncation: must be >= 0")
        # Each TV order k fills (truncation + 1)^k float cells; checked
        # before anything is drawn.
        if self.tv_orders and (self.truncation + 1) ** max(self.tv_orders) > stats._CHUNK_ELEMENTS:
            raise ConfigError(
                f"tv_orders: order {max(self.tv_orders)} at truncation {self.truncation} "
                f"needs {self.truncation + 1}^{max(self.tv_orders)} pmf cells, "
                f"above the cap of {stats._CHUNK_ELEMENTS}"
            )
        if self.command == "verify-lemmas":
            if self.pair_n < 3:
                raise ConfigError(
                    "pair_n: must be >= 3, as event-factorization walks starts 1..3"
                )
            if self.pair_n > sweeps._PAIR_MAX_N:
                raise ConfigError(
                    f"pair_n: caps at {sweeps._PAIR_MAX_N}, as event-factorization walks "
                    "23.2 million pairs at n = 8, 15 times as many as at n = 7"
                )
            if self.single_n < 1:
                raise ConfigError("single_n: must be >= 1")
            if self.single_n > sweeps._SINGLE_MAX_N:
                raise ConfigError(
                    f"single_n: caps at {sweeps._SINGLE_MAX_N}, as the trace sweep checks "
                    "one permutation per cycle type: 5,604 at n = 30, 37,338 at n = 40"
                )
        for size in self.n_grid or (self.n,):
            for spec in self.samplers:
                try:
                    spec.bind(n=size).fixed_cycle_type()
                except ValueError as exc:
                    raise ConfigError(f"samplers: {exc}") from None
        # The draws read theta as a float; exact works in rationals.
        if self.command != "exact" and any(
            spec.kind == "ewens" and spec.theta > sys.float_info.max for spec in self.samplers
        ):
            raise ConfigError(
                f"samplers: an ewens theta above {sys.float_info.max:.6g}, the largest "
                "float, cannot be drawn; only command exact takes it"
            )
        if self.command == "counterexample" and len(self.samplers) != 2:
            raise ConfigError(
                "samplers: command counterexample needs exactly 2 samplers, "
                f"got {len(self.samplers)}"
            )
        if self.command == "exact":
            if len(self.samplers) < 2:
                raise ConfigError(
                    "samplers: command exact needs at least 2 samplers, "
                    f"got {len(self.samplers)}"
                )
            if self.n > _EXACT_MAX_N:
                raise ConfigError(f"n: exact caps at {_EXACT_MAX_N}")
            if len(self.v_vec) > self.n:
                raise ConfigError("v_vec: more start indices than ground-set elements")
        if self.command == "convergence" and not self.functionals and not self.tv_orders:
            raise ConfigError("functionals: convergence needs functionals or tv_orders")
        if self.functionals:
            try:
                stats._check_functionals(self.functionals, len(self.samplers))
            except ValueError as exc:
                raise ConfigError(f"functionals: {exc}") from None
        # Moment rows need a standard error; checked before anything is drawn.
        estimates = self.command in ("moments", "counterexample") or (
            self.command == "convergence" and self.functionals
        )
        if estimates and self.samples < stats._MIN_ESTIMATE_SAMPLES:
            raise ConfigError(
                f"samples: command {self.command} estimates moments from at least "
                f"{stats._MIN_ESTIMATE_SAMPLES} samples, got {self.samples}"
            )


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw.strip())
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_functional(key: str, text: str) -> stats.Functional:
    try:
        return stats.parse_functional(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _parse_path(key: str, raw: str) -> str:
    if not raw.strip():
        raise ConfigError(f"{key}: empty path")
    return raw.strip()


def _parse_text(key: str, raw: str) -> str:
    return raw.strip()


def _list_text(read_item, write_item=str):
    """The (read, write) pair of a comma-separated list of at least one item."""

    def read(key: str, raw: str) -> tuple:
        parts = [part for part in (p.strip() for p in raw.split(",")) if part]
        if not parts:
            raise ConfigError(f"{key}: expected a comma-separated list, got {raw!r}")
        return tuple(read_item(key, p) for p in parts)

    return read, lambda values: ", ".join(write_item(v) for v in values)


_INT_LIST = _list_text(_parse_int)

# The text form of every config field but command, in field order:
# read(key, raw) parses file or flag text and names the field on failure;
# write(value) gives the text that reads back as the value. Each key is
# also the flag --key-with-dashes.
_TEXT = {
    "seed": (_parse_int, str),
    "samplers": _list_text(lambda _, text: sampler_from_text(text), sampler_to_text),
    "n": (_parse_int, str),
    "n_grid": _INT_LIST,
    "v_vec": _INT_LIST,
    "functionals": _list_text(_parse_functional, lambda f: f.label()),
    "tv_orders": _INT_LIST,
    "samples": (_parse_int, str),
    "truncation": (_parse_int, str),
    "pair_n": (_parse_int, str),
    "single_n": (_parse_int, str),
    "output": (_parse_path, str),
    "format": (_parse_text, str),
}


def config_from_mapping(mapping: Mapping[str, str]) -> ExperimentConfig:
    """Validate a string-to-string mapping into a config.

    The single parser of config text, from a file and from flags alike:
    every entry is a string and every failure names its field.
    """
    for key in mapping:
        if key != "command" and key not in _TEXT:
            raise ConfigError(f"{key}: unknown config key")
    if "command" not in mapping:
        raise ConfigError("command: missing")
    kwargs = {
        key: read(key, mapping[key]) for key, (read, _) in _TEXT.items() if key in mapping
    }
    return ExperimentConfig(command=mapping["command"].strip(), **kwargs)


def _mapping_from_text(text: str) -> dict[str, str]:
    """The key = value pairs of a config file body; # starts a comment line."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        if key in mapping:
            raise ConfigError(f"{key}: duplicate key on line {lineno}")
        mapping[key] = value.strip()
    return mapping


def serialize_config(config: ExperimentConfig) -> str:
    """A ``--config`` file body that reads back as config; omits default fields."""
    lines = [f"command = {config.command}"]
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name in _TEXT and value != f.default:
            lines.append(f"{f.name} = {_TEXT[f.name][1](value)}")
    return "\n".join(lines) + "\n"


def _provenance_config(config: ExperimentConfig) -> ExperimentConfig:
    # The output path varies between reruns and environments; everything
    # else is part of the experiment's identity.
    return replace(config, output=None)


def _config_dict(config: ExperimentConfig) -> dict[str, str]:
    out: dict[str, str] = {}
    for line in serialize_config(_provenance_config(config)).splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _json_value(value):
    if isinstance(value, Fraction):
        return _cell(value)
    if isinstance(value, float):
        return float(_cell(value))
    return value


def emit_report(
    results: Sequence[Mapping],
    format: str,
    path: str | None = None,
    config: ExperimentConfig | None = None,
    trends: Mapping[str, str] | None = None,
) -> str:
    """Render result rows to CSV or JSON text; write to ``path`` when given.

    All rows must share one key order. Rationals render as "num/den",
    floats with 12 significant digits, missing values as empty cells
    (CSV) or null (JSON). CSV carries the provenance config and any
    trend verdicts as leading # comment lines; JSON nests them.
    """
    rows = [dict(r) for r in results]
    if not rows:
        raise ValueError("refusing to emit an empty report")
    if format not in ("csv", "json"):
        raise ValueError(f"unknown report format {format!r}")
    columns = list(rows[0].keys())
    for row in rows:
        if list(row.keys()) != columns:
            raise ValueError("result rows must share one schema")
    if format == "csv":
        buf = io.StringIO()
        if config is not None:
            one_line = "; ".join(
                serialize_config(_provenance_config(config)).strip().splitlines()
            )
            buf.write(f"# config: {one_line}\n")
        for label, verdict in (trends or {}).items():
            buf.write(f"# trend {label} = {verdict}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(v) for v in row.values()])
        text = buf.getvalue()
    else:
        doc: dict = {}
        if config is not None:
            doc["config"] = _config_dict(config)
        if trends:
            doc["trends"] = dict(trends)
        doc["rows"] = [{k: _json_value(v) for k, v in row.items()} for row in rows]
        text = json.dumps(doc, indent=2) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def _exact_law(spec: SamplerSpec) -> ExactDistribution:
    """The distribution a bound sampler spec draws from, as an exact law."""
    if spec.kind == "uniform":
        return ExactDistribution.uniform(spec.n)
    if spec.kind == "ewens":
        return ExactDistribution.ewens(spec.n, spec.theta)
    return ExactDistribution.explicit(
        spec.n, {spec.fixed_cycle_type(): 1}, kind=spec.label()
    )


def _run_sample(config: ExperimentConfig):
    specs = [s.bind(n=config.n) for s in config.samplers]
    rows = []

    def consume(pos, factor_rows):
        prod = product_rows(factor_rows) if len(specs) > 1 else None
        for i in range(factor_rows[0].shape[0]):
            row: dict = {"index": pos + i}
            for f, factor in enumerate(factor_rows):
                row[f"factor{f + 1}"] = " ".join(str(int(x) + 1) for x in factor[i])
            if prod is not None:
                row["product"] = " ".join(str(int(x) + 1) for x in prod[i])
            rows.append(row)

    stats.draw_chunks(specs, config.samples, config.seed, consume)
    return rows, None, 0


def _estimate_row(config: ExperimentConfig, label: str, est: stats.MomentEstimate) -> dict:
    row = stats.ScanRow(config.n, label, est.value, est.stderr, config.samples, config.seed)
    return asdict(row)


def _run_moments(config: ExperimentConfig):
    ests = stats.moment_estimates(
        list(config.samplers),
        list(config.functionals),
        config.samples,
        config.seed,
        n=config.n,
    )
    rows = [_estimate_row(config, f.label(), e) for f, e in zip(config.functionals, ests)]
    return rows, None, 0


def _run_convergence(config: ExperimentConfig):
    scan = stats.convergence_scan(
        list(config.samplers),
        list(config.functionals),
        list(config.n_grid),
        config.samples,
        config.seed,
        truncation=config.truncation,
        tv_orders=list(config.tv_orders),
    )
    return [asdict(r) for r in scan.rows], dict(scan.trend), 0


def _run_exact(config: ExperimentConfig):
    laws = [_exact_law(s.bind(n=config.n)) for s in config.samplers]
    v = tuple(config.v_vec)
    label = "*".join(str(x) for x in v)
    moment = exact_moment(laws, v)
    joint = exact_joint_cycle_prob(laws, v)
    scaled = Fraction(config.n) ** len(v) * joint
    rows = []
    for quantity, value in (
        ("moment", moment),
        ("joint-prob", joint),
        ("scaled-joint-prob", scaled),
    ):
        rows.append(
            {
                "n": config.n,
                "quantity": quantity,
                "v": label,
                "rational": value,
                "value": float(value),
            }
        )
    return rows, None, 0


def _run_verify_lemmas(config: ExperimentConfig):
    summaries = sweeps.run_all(pair_n=config.pair_n, single_n=config.single_n)
    rows = [
        {
            "suite": s.suite,
            "n": s.n,
            "cases": s.cases,
            "violations": s.violations,
            "ok": s.ok,
            "detail": s.detail,
            "examples": "; ".join(s.examples),
        }
        for s in summaries
    ]
    code = 0 if all(s.ok for s in summaries) else 1
    return rows, None, code


def _run_counterexample(config: ExperimentConfig):
    # The factor1:* diagnostics read the cycle counts of the first factor
    # of the pair's draws, off its blocks.
    specs = [s.bind(n=config.n) for s in config.samplers]
    pair_funcs = [
        stats.Functional.product_cycle_counts((1,)),
        stats.Functional.product_cycle_counts((1, 1)),
    ]
    solo_funcs = [
        stats.Functional.scaled_fixed_point_moment(1),
        stats.Functional.scaled_fixed_point_moment(2),
        stats.Functional.scaled_two_cycle_rate(),
    ]
    pair_counts = np.empty((config.samples, 1), dtype=np.int64)
    solo_counts = np.empty((config.samples, min(2, config.n)), dtype=np.int64)

    def consume(pos, counts, first):
        end = pos + counts.shape[0]
        pair_counts[pos:end] = counts
        solo_counts[pos:end] = first.cycle_counts(2)

    stats.draw_chunks(specs, config.samples, config.seed, consume, kmax=1)
    rows = []
    for prefix, funcs, counts, law in (
        ("", pair_funcs, pair_counts, specs),
        ("factor1:", solo_funcs, solo_counts, specs[:1]),
    ):
        ests = stats.estimates_from_counts(funcs, counts, law, config.seed)
        rows += [_estimate_row(config, prefix + f.label(), e) for f, e in zip(funcs, ests)]
    return rows, None, 0


_RUNNERS = {
    "sample": _run_sample,
    "moments": _run_moments,
    "convergence": _run_convergence,
    "exact": _run_exact,
    "verify-lemmas": _run_verify_lemmas,
    "counterexample": _run_counterexample,
}


def run(config: ExperimentConfig) -> int:
    """Execute one config; returns the process exit code."""
    rows, trends, code = _RUNNERS[config.command](config)
    text = emit_report(
        rows, config.format, path=config.output, config=config, trends=trends
    )
    if config.output is not None:
        print(f"wrote {len(rows)} rows to {config.output}")
    else:
        sys.stdout.write(text)
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permprod",
        description="Cycle statistics of products of invariant random permutations.",
    )
    helps = {
        "samplers": "comma-separated sampler descriptors",
        "n_grid": "comma-separated sizes",
        "v_vec": "comma-separated cycle lengths",
        "functionals": "comma-separated functional descriptors",
        "tv_orders": "comma-separated joint orders",
    }
    # Every command takes the same flags, built once and shared.
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--config", help="key = value config file; flags override")
    for key in _TEXT:
        flags.add_argument("--" + key.replace("_", "-"), dest=key, help=helps.get(key))
    sub = parser.add_subparsers(dest="command")
    for command in _COMMANDS:
        sub.add_parser(command, parents=[flags])
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    mapping: dict[str, str] = {}
    if args.config:
        mapping.update(_mapping_from_text(Path(args.config).read_text()))
    for key in _TEXT:
        value = getattr(args, key)
        if value is not None:
            mapping[key] = value
    if "command" in mapping and mapping["command"] != args.command:
        raise ConfigError(
            f"command: config file says {mapping['command']!r} but the "
            f"subcommand is {args.command!r}"
        )
    mapping["command"] = args.command
    return config_from_mapping(mapping)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        config = _config_from_args(args)
        return run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
