"""Command-line driver.

Subcommands map one-to-one onto the experiment suites:

- ``constants``: error constants and explicit stability limits;
- ``sweep``: convergence factors as a function of the CFL number;
- ``iters``: iteration-count tables over grids and coarsening factors;
- ``validate``: discretization-order and truncation-constant checks;
- ``solve``: a single run with the full residual history.

Outputs are CSV with a commented (#) metadata header carrying the resolved
configuration, so any plotting tool can regenerate the curves.  Exit codes:
0 success, 1 configuration error, 2 numerical singularity, 3 validation
failure.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import io
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from typing import List, Optional, Sequence, get_type_hints

import numpy as np

from . import experiments, lfa, mgrit
from .errors import NotRealOperatorError, SingularOperatorError
from .stencils import upwind_derivative
from .stepping import DiscretizationSpec, cfl_limit


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Flat configuration; sections in the file map to field prefixes."""

    family: str = "erk"
    p: int = 3
    c: float = 0.0              # absolute CFL number (sdirk convention)
    c_fraction: float = 0.0     # CFL as a fraction of c_max (erk convention)
    coarse: str = "modified"
    m: List[int] = field(default_factory=lambda: [2])
    nu: int = 1
    cycle: str = "two_level"
    max_iters: int = 30
    tol: float = 1e-10
    seed: int = 0
    n_x: int = 256
    n_t: int = 1024
    lfa_samples: int = 2 ** 11
    lfa_excluded: int = -1      # -1: per-order default
    c_min: float = 0.0
    c_max: float = 0.0
    c_points: int = 512
    measure: bool = False
    threads: int = 1            # 0: use the available parallelism
    out: str = ""

    SECTIONS = {
        "discretization": ("family", "p", "c", "c_fraction", "coarse"),
        "mgrit": ("m", "nu", "cycle", "max_iters", "tol", "seed"),
        "lfa": ("lfa_samples", "lfa_excluded"),
        "grid": ("n_x", "n_t"),
        "sweep": ("c_min", "c_max", "c_points", "measure"),
        "run": ("threads", "out"),
    }

    def validate(self, command: str = ""):
        """Check the values; with ``command``, also that the space-time grid
        suits the solves that command runs."""
        if self.family not in ("erk", "sdirk"):
            raise ConfigError(f"unknown family {self.family!r}")
        if not 1 <= self.p <= 5:
            raise ConfigError(f"order p must be in 1..5, got {self.p}")
        for name in ("c", "c_fraction", "c_min", "c_max"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} = {getattr(self, name)} is not finite")
        for name in ("c", "c_fraction"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} = {getattr(self, name)} is negative")
        if self.coarse not in experiments.COARSE_KINDS:
            raise ConfigError(f"unknown coarse operator kind {self.coarse!r}")
        if self.family == "erk" and self.coarse == "rediscretized":
            raise ConfigError(
                "rediscretized coarse operators are unavailable for explicit "
                "fine grids: at m times the step they exceed the stability "
                "limit and the coarse operator is unstable")
        if not self.m or any(m < 2 for m in self.m):
            raise ConfigError(f"coarsening factors must be >= 2, got {self.m}")
        self.mgrit_config()
        if self.threads < 0:
            raise ConfigError(f"threads must be >= 0, got {self.threads}")
        excluded = (lfa.default_exclusion_count(self.p)
                    if self.lfa_excluded < 0 else self.lfa_excluded)
        if command == "sweep" and self.c_points < 1:
            raise ConfigError(f"c_points must be >= 1, got {self.c_points}")
        if command == "sweep" and self.lfa_samples <= excluded + 1:
            # the scan drops omega = 0 and the excluded frequencies nearest it
            raise ConfigError(f"lfa_samples = {self.lfa_samples} leaves no "
                              f"sample once omega = 0 and {excluded} more are "
                              f"excluded; need > {excluded + 1}")
        if command in ("solve", "iters") or (command == "sweep" and self.measure):
            if self.n_x < 1 or self.n_t < 1:
                raise ConfigError(
                    f"grid sizes must be positive, got {self.n_x},{self.n_t}")
            try:
                upwind_derivative(self.p, self.n_x)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            # solve coarsens by the first factor (later ones are deeper
            # v-cycle levels, dropped where they stop dividing); iters and
            # measured sweeps run every factor as a two-level factor
            factors = self.m[:1] if command == "solve" else self.m
            bad = [m for m in factors if self.n_t % m]
            if bad:
                raise ConfigError(f"n_t = {self.n_t} is not divisible by the "
                                  f"coarsening factor(s) {bad}")
        return self

    def mgrit_config(self) -> mgrit.MgritConfig:
        """The run's iteration controls, as checked by ``MgritConfig``."""
        try:
            return mgrit.MgritConfig(self.nu, self.cycle, self.tol,
                                     self.max_iters, self.seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @contextlib.contextmanager
    def cfl_overflow(self, name: str = ""):
        """Report an overflow while operators are built from a CFL number as
        a bad value of ``name``, by default the setting ``resolve_c`` reads,
        and so a semi-Lagrangian shift too long for its symbol's phases to
        stay conjugate-symmetric in floating point.  A build that fails so
        has warned of nothing: ``build_problem`` builds the coarse levels of
        any kind, where it fails, before the fine stepper, the only one that
        warns."""
        name = name or ("c_fraction" if self.c_fraction > 0.0 else "c")
        try:
            yield
        except OverflowError as exc:
            # the reason alone: float ** puts an errno before it
            raise ConfigError(f"{name} = {getattr(self, name)} overflows: "
                              f"{exc.args[-1]}") from exc
        except NotRealOperatorError as exc:
            raise ConfigError(f"{name} = {getattr(self, name)} is too large: "
                              f"its semi-Lagrangian shifts round the phases "
                              f"of their symbols, and {exc}") from exc

    def resolve_c(self) -> float:
        """Absolute fine-grid CFL number (fractions refer to c_max)."""
        if self.c_fraction > 0.0:
            return self.c_fraction * cfl_limit(self.p)
        if self.c > 0.0:
            return self.c
        raise ConfigError("set either c or c_fraction")

    # ------------------------------------------------------------ round trip

    def to_text(self) -> str:
        parser = configparser.ConfigParser()
        values = asdict(self)
        for section, keys in self.SECTIONS.items():
            parser[section] = {}
            for key in keys:
                value = values[key]
                if isinstance(value, list):
                    value = ",".join(str(v) for v in value)
                parser[section][key] = str(value)
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config: {exc}") from exc
        kwargs = {}
        for section in parser.sections():
            if section not in cls.SECTIONS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser[section].items():
                if key not in cls.SECTIONS[section]:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
                kwargs[key] = _convert(key, raw)
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        return cls.from_text(text)


def _convert(key: str, raw: str):
    """Parse the text of a file value or flag by its field's annotation."""
    kind = get_type_hints(ExperimentConfig)[key]
    try:
        if kind is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        if kind == List[int]:
            return [int(tok) for tok in raw.split(",") if tok]
        return kind(raw)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


# ------------------------------------------------------------------- CSV output

def write_csv(path: Optional[str], header: Sequence[str], rows: Sequence[Sequence],
              metadata: Sequence[str]) -> str:
    """Write rows as CSV with '#'-prefixed metadata lines; returns the text.

    Numbers use C-locale formatting with at least six significant digits.
    """
    lines = [f"# {line}" for line in metadata]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.8e}"  # nan, inf and -inf as such
    return str(value)


def _metadata(config: ExperimentConfig, command: str) -> List[str]:
    lines = [f"command: {command}"]
    lines += [line for line in config.to_text().splitlines() if line.strip()]
    return lines


# ------------------------------------------------------------------ subcommands

def cmd_constants(config: ExperimentConfig) -> int:
    rows = [(r["quantity"], r["scheme"], r["order"], r["value"])
            for r in experiments.constants_rows()]
    write_csv(config.out or None, ("quantity", "scheme", "order", "value"),
              rows, _metadata(config, "constants"))
    return 0


def cmd_sweep(config: ExperimentConfig) -> int:
    # every point is a two-level factor, predicted or measured, whatever
    # cycle the configuration names; the header says so
    config = replace(config, cycle="two_level")
    limit = cfl_limit(config.p) if config.family == "erk" else 1.0
    if config.c_points == 1 or config.c_min == config.c_max:
        fractions = [config.c_max]
    else:
        # Python floats overflow to inf without numpy's warning
        fractions = np.linspace(config.c_min, config.c_max,
                                config.c_points).tolist()
    if config.c_min < 0.0 or config.c_max < config.c_min or fractions[0] <= 0.0:
        raise ConfigError("sweep needs 0 <= c_min <= c_max with c_max > 0, "
                          "and c_min > 0 for several points")

    with config.cfl_overflow("c_max"):
        points = experiments.lfa_sweep(
            config.family, config.p, config.coarse,
            [f * limit for f in fractions], config.m, config.mgrit_config(),
            n_samples=config.lfa_samples,
            n_excluded=None if config.lfa_excluded < 0 else config.lfa_excluded,
            measure_grid=(config.n_x, config.n_t) if config.measure else None,
            threads=config.threads)

    header = ["c", "c_over_cmax", "m", "rho_lfa", "divergent",
              "coarse_unstable", "rho_bound", "rho_measured",
              "measured_converged", "measured_iters"]
    rows = [(pt.c, pt.c / limit if config.family == "erk" else None, pt.m,
             pt.rho_lfa, pt.divergent, pt.coarse_unstable, pt.rho_bound,
             pt.rho_measured, pt.measured_converged, pt.measured_iters)
            for pt in sorted(points, key=lambda s: (s.c, s.m))]
    write_csv(config.out or None, header, rows, _metadata(config, "sweep"))
    return 0


def cmd_iters(config: ExperimentConfig) -> int:
    c = config.resolve_c()
    with config.cfl_overflow():
        cells = experiments.iteration_table(
            config.family, config.p, c, (config.n_x, config.n_t), config.m,
            config.coarse, config.mgrit_config(), threads=config.threads)
    header = ("n_x", "n_t", "m", "iters_two_level", "iters_v_cycle")
    rows = [(cell.n_x, cell.n_t, cell.m, cell.iters_two_level,
             cell.iters_v_cycle) for cell in cells]
    write_csv(config.out or None, header, rows, _metadata(config, "iters"))
    return 0


def cmd_validate(config: ExperimentConfig) -> int:
    rows = experiments.validation_rows()
    header = ("check", "subject", "observed", "expected", "tolerance", "passed")
    out_rows = [(r.check, r.subject, r.observed, r.expected, r.tolerance,
                 r.passed) for r in rows]
    write_csv(config.out or None, header, out_rows, _metadata(config, "validate"))
    failed = [r for r in rows if not r.passed]
    for r in failed:
        print(f"FAILED {r.check} [{r.subject}]: observed {r.observed:.6g}, "
              f"expected {r.expected:.6g} (tol {r.tolerance:.3g})",
              file=sys.stderr)
    return 3 if failed else 0


def cmd_solve(config: ExperimentConfig) -> int:
    c = config.resolve_c()
    with config.cfl_overflow():
        spec = DiscretizationSpec(config.family, config.p, c, config.n_x,
                                  config.n_t)
        problem = experiments.build_problem(spec, config.m, config.cycle,
                                            config.coarse)
    report = mgrit.solve(problem, config.mgrit_config(), threads=config.threads)
    header = ("iteration", "residual_norm")
    rows = list(enumerate(report.residual_norms))
    meta = _metadata(config, "solve")
    meta.append(f"converged: {report.converged}")
    meta.append(f"iterations: {report.iterations}")
    meta.append(f"effective_rho: {report.effective_rho:.8e}")
    meta.append(f"wall_time_seconds: {report.wall_time:.6f}")
    meta.append(f"threads: {config.threads}")
    write_csv(config.out or None, header, rows, meta)
    return 0


# ------------------------------------------------------------------------ main

class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as configuration errors (exit 1), not argparse's
    exit 2, which the CLI reserves for numerical singularities."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mgrit-advection",
        description="Multigrid-reduction-in-time studies for 1-D linear advection")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("constants", "error constants and explicit stability limits"),
            ("sweep", "convergence factors over a CFL range"),
            ("iters", "iteration-count table"),
            ("validate", "order and truncation-constant checks"),
            ("solve", "single MGRIT run with residual history")):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", help="configuration file (ini format)")
        cmd.add_argument("--out", help="output CSV path (default: stdout)")
        cmd.add_argument("--threads", type=int, help=(
            "worker threads, default 1, 0 for all cores: MGRIT phases split "
            "into blocks of coarse intervals, sweeps into (c, m) points; "
            "histories do not depend on it"))
        cmd.add_argument("--seed", type=int, help="random seed")
        cmd.add_argument("--measure", action="store_true", default=None,
                         help="attach measured factors to sweep points")
        cmd.add_argument("--cycle", choices=["two-level", "v"],
                         help="cycle type")
        cmd.add_argument("--nu", type=int, help="CF-relaxation sweeps")
        cmd.add_argument("--m", help="comma-separated coarsening factors")
        cmd.add_argument("--grid", help="space-time grid as NX,NT")
        cmd.add_argument("--family", choices=["erk", "sdirk"])
        cmd.add_argument("--p", type=int, help="discretization order")
        cmd.add_argument("--c", type=float, help="fine-grid CFL number")
        cmd.add_argument("--c-fraction", type=float,
                         help="fine-grid CFL as a fraction of c_max")
        cmd.add_argument("--coarse", choices=list(experiments.COARSE_KINDS))
        cmd.add_argument("--c-range", help="sweep range as CMIN,CMAX,NPOINTS")
        cmd.add_argument("--max-iters", type=int)
    return parser


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    # a flag whose destination is a field sets it; text goes through _convert
    for f in fields(config):
        value = getattr(args, f.name, None)
        if value is not None and f.name != "cycle":
            setattr(config, f.name,
                    _convert(f.name, value) if isinstance(value, str) else value)
    if args.cycle is not None:
        config.cycle = "two_level" if args.cycle == "two-level" else "v_cycle"
    if args.grid is not None:
        try:
            n_x, n_t = (int(tok) for tok in args.grid.split(","))
        except ValueError as exc:
            raise ConfigError(f"--grid expects NX,NT, got {args.grid!r}") from exc
        config.n_x, config.n_t = n_x, n_t
    if args.c_range is not None:
        try:
            c_min, c_max, n = args.c_range.split(",")
            config.c_min, config.c_max = float(c_min), float(c_max)
            config.c_points = int(n)
        except ValueError as exc:
            raise ConfigError(
                f"--c-range expects CMIN,CMAX,NPOINTS, got {args.c_range!r}") from exc
    return config


COMMANDS = {
    "constants": cmd_constants,
    "sweep": cmd_sweep,
    "iters": cmd_iters,
    "validate": cmd_validate,
    "solve": cmd_solve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.config:
            config = ExperimentConfig.from_file(args.config)
        else:
            config = ExperimentConfig()
        config = _apply_overrides(config, args)
        config.validate(args.command)
        if config.threads == 0:
            config.threads = os.cpu_count() or 1
        return COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except SingularOperatorError as exc:
        print(f"numerical singularity: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
