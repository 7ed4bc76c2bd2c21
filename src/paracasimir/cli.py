"""Command-line driver: sweeps, constants, and the validation suite.

Every command writes one table (CSV with a config echo in ``#`` lines,
or JSON as one object per line) so figures and regressions can be
rebuilt from artifacts alone.  Numeric rows always carry their error
estimates.  Output is deterministic: fixed grids, fixed summation
order, and sweep points computed one after another.  `COMMANDS` holds
each command's help line, the settings it reads and its rows function;
any other setting must hold its default, so the echo holds only settings
that made the table.  ``--output`` is opened only once there is a table
or a diagnostic to write, so a rejected run leaves an existing file
untouched.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from dataclasses import asdict, dataclass, fields, replace

from .approx import EdgeLimitWarning, pfa_energy
from .energy import (
    QuadratureSpec,
    _CHANNELS,
    c_theta,
    default_quadrature,
    energy_per_length,
    thermal_energy,
)
from .roundtrip import PhysicalRegimeError
from .scattering import Geometry
from .specfun import DomainError
from .testing import run_identity_suite
from .translation import AccuracyError

__all__ = ["RunConfig", "parse_config_file", "build_config", "run", "main"]

_ENERGY = ("radius", "separation", "angle_deg", "numax", "quad_nodes", "qmax_scaled",
           "channel")
_CPERP = ("numax", "quad_nodes", "qmax_scaled", "channel")
_SWEEP = ("sweep_from", "sweep_to", "points")
_CHANNEL_CHOICES = tuple(_CHANNELS)
_FORMAT_CHOICES = ("csv", "json")


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved invocation.

    Angles are degrees here and radians inside the library; sweeps read
    their range from ``sweep_from``/``sweep_to``/``points`` and the
    thermal command its temperature (k_B T H / hbar c) from
    ``temperature``.  ``qmax_scaled = None`` lets the library pick the
    cutoff for the geometry.  A field the command does not read, by its
    entry in `COMMANDS`, must hold its default.
    """

    command: str
    radius: float = 0.0
    separation: float = 1.0
    angle_deg: float = 0.0
    numax: int = 100
    quad_nodes: int = QuadratureSpec.node_count
    qmax_scaled: float | None = None
    tolerance: float = 1e-6
    channel: str = "em"
    format: str = "csv"
    path: str | None = None
    sweep_from: float | None = None
    sweep_to: float | None = None
    points: int = 7
    temperature: float | None = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise DomainError(f"unknown command {self.command!r}")
        if self.channel not in _CHANNEL_CHOICES:
            raise DomainError(f"channel must be one of {_CHANNEL_CHOICES}")
        if self.format not in _FORMAT_CHOICES:
            raise DomainError(f"format must be one of {_FORMAT_CHOICES}")
        if not (0 <= self.radius < math.inf and 0 < self.separation < math.inf):
            raise DomainError("need finite radius >= 0 and finite separation > 0")
        if self.numax < 0 or self.quad_nodes < 2 or self.points < 1:
            raise DomainError("need numax >= 0, quad_nodes >= 2, points >= 1")
        if not 0 < self.tolerance < math.inf:
            raise DomainError("tolerance must be finite and positive")
        unread = [f.name for f in fields(self) if f.name not in
                  COMMANDS[self.command][1] + ("command", "format", "path")
                  and getattr(self, f.name) != f.default]
        if unread:
            raise DomainError(f"{self.command} does not read {', '.join(unread)}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


def _parse_value(key: str, text: str):
    """Parse ``text`` by the annotation of field ``key``: an int, float or
    str, or None for ``none`` where the annotation allows it."""
    kind = {f.name: f.type for f in fields(RunConfig)}.get(key)
    if kind is None:
        raise DomainError(f"unknown config key {key!r}")
    base, *optional = kind.split(" | ")
    if optional and text.lower() == "none":
        return None
    return {"int": int, "float": float, "str": str}[base](text)


def parse_config_file(path: str) -> dict:
    """Read a plain-text config of `key = value` lines.

    Blank lines and ``#`` comments are skipped; keys match RunConfig
    field names (hyphens normalize to underscores), and a key given
    twice is refused rather than letting the last line win.
    """
    values, first_line = {}, {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected 'key = value'")
            key, text = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key in first_line:
                raise DomainError(
                    f"{path}:{lineno}: {key} is already set on line {first_line[key]}")
            first_line[key] = lineno
            try:
                values[key] = _parse_value(key, text.strip())
            except ValueError as exc:
                raise DomainError(f"{path}:{lineno}: {exc}") from None
    return values


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="key = value file merged below explicit flags")
    common.add_argument("--radius", type=float, help="parabolic radius R")
    common.add_argument("--separation", type=float, help="tip-plane distance H")
    common.add_argument("--angle", dest="angle_deg", type=float,
                        help="tilt angle in degrees")
    common.add_argument("--numax", type=int, help="partial-wave truncation order")
    common.add_argument("--quad-nodes", dest="quad_nodes", type=int,
                        help="Gauss-Legendre nodes per frequency panel")
    common.add_argument("--qmax-scaled", dest="qmax_scaled", type=float,
                        help="upper frequency cutoff in units of 1/H")
    common.add_argument("--tolerance", type=float, help="relative accuracy target")
    common.add_argument("--channel", choices=_CHANNEL_CHOICES)
    common.add_argument("--format", choices=_FORMAT_CHOICES)
    common.add_argument("--output", dest="path", metavar="FILE",
                        help="write the table here instead of stdout")
    parser = argparse.ArgumentParser(
        prog="paracasimir", allow_abbrev=False,
        description="Casimir energies of a parabolic cylinder facing a plane")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, reads, _) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_line, allow_abbrev=False)
        if "points" in reads:
            p.add_argument("--from", dest="sweep_from", type=float)
            p.add_argument("--to", dest="sweep_to", type=float)
            p.add_argument("--points", type=int)
        if "temperature" in reads:
            p.add_argument("--temperature", type=float, metavar="T_SCALED")
    return parser


def build_config(argv=None) -> RunConfig:
    """Parse flags (and an optional config file) into a RunConfig."""
    args = vars(_build_parser().parse_args(argv))
    config_path = args.pop("config", None)
    merged = parse_config_file(config_path) if config_path else {}
    for key, value in args.items():
        if value is not None:
            merged[key] = value
    merged["command"] = args["command"]
    return RunConfig.from_dict(merged)


def _quadrature(config):
    geom = Geometry(config.radius, config.separation,
                    math.radians(config.angle_deg))
    base = default_quadrature(geom)
    qmax = config.qmax_scaled if config.qmax_scaled is not None else base.qmax_scaled
    return geom, replace(base, node_count=config.quad_nodes, qmax_scaled=qmax,
                         tolerance=config.tolerance)


def _linspace(lo: float, hi: float, count: int):
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + step * i for i in range(count)]


def _geomspace(lo: float, hi: float, count: int):
    if count == 1:
        return [lo]
    ratio = (hi / lo) ** (1.0 / (count - 1))
    return [lo * ratio ** i for i in range(count)]


def _rows_energy(config):
    geom, spec = _quadrature(config)
    res = energy_per_length(geom, spec, config.numax, config.channel)
    return [{
        "radius": config.radius, "separation": config.separation,
        "angle_deg": config.angle_deg, "channel": config.channel,
        "nu_max": res.series[-1][0], "energy": res.value,
        "extrapolated": res.extrapolated, "trunc_error": res.trunc_error,
        "quad_error": res.quad_error,
    }], True


def _rows_cperp(config):
    _, spec = _quadrature(config)
    res = c_theta(0.0, config.numax, spec, config.channel)
    return [{
        "channel": config.channel, "nu_max": res.series[-1][0],
        "c_perp": res.extrapolated, "trunc_error": res.trunc_error,
        "quad_error": res.quad_error,
    }], True


def _rows_ctheta(config):
    _, spec = _quadrature(config)
    lo = config.sweep_from if config.sweep_from is not None else 0.0
    hi = config.sweep_to if config.sweep_to is not None else 90.0

    def point(theta_deg):
        res = c_theta(math.radians(theta_deg), config.numax, spec, config.channel)
        return {"theta_deg": theta_deg, "c_theta": res.extrapolated,
                "channel": config.channel, "trunc_error": res.trunc_error,
                "quad_error": res.quad_error}

    return [point(theta) for theta in _linspace(lo, hi, config.points)], True


def _rows_hsweep(config):
    if config.radius <= 0:
        raise DomainError("h-sweep requires --radius > 0")
    lo = config.sweep_from if config.sweep_from is not None else 0.25
    hi = config.sweep_to if config.sweep_to is not None else 4.0
    if not 0 < lo <= hi:
        raise DomainError("h-sweep range must satisfy 0 < from <= to")
    _, spec = _quadrature(config)

    def point(ratio):
        H = ratio * config.radius
        geom = Geometry(config.radius, H, 0.0)
        res = energy_per_length(geom, spec, config.numax, config.channel)
        h2 = H * H
        return {"h_over_r": ratio, "energy_h2": res.value * h2,
                "pfa_ratio": res.value / pfa_energy(H, config.radius),
                "trunc_error": res.trunc_error * h2,
                "quad_error": res.quad_error * h2}

    return [point(ratio) for ratio in _geomspace(lo, hi, config.points)], True


def _rows_thermal(config):
    geom, spec = _quadrature(config)
    if config.temperature is None or config.temperature < 0:
        raise DomainError("thermal requires --temperature >= 0")
    res = thermal_energy(geom, config.temperature, config.numax, spec,
                         config.channel)
    return [{
        "t_scaled": config.temperature, "channel": config.channel,
        "nu_max": res.series[-1][0], "energy": res.value,
        "extrapolated": res.extrapolated, "trunc_error": res.trunc_error,
        "quad_error": res.quad_error,
    }], True


def _rows_pfa(config):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = pfa_energy(config.separation, config.radius)
    edge_limited = any(issubclass(w.category, EdgeLimitWarning) for w in caught)
    return [{
        "radius": config.radius, "separation": config.separation,
        "pfa_energy": value, "edge_limited": edge_limited, "error": 0.0,
    }], True


def _rows_validate(config):
    checks = run_identity_suite()
    rows = [{"check": c.name, "measure": c.measure, "bound": c.bound,
             "passed": c.passed} for c in checks]
    return rows, all(c.passed for c in checks)


# Each command: its help line, the RunConfig fields it reads besides
# command, format and path, and the function that computes its rows.
COMMANDS = {
    "energy": ("energy per unit length for one geometry", _ENERGY, _rows_energy),
    "cperp": ("knife-edge constant C of E = -C/H^2", _CPERP, _rows_cperp),
    "ctheta-sweep": ("tilt coefficient c(theta) over a range of angles",
                     _CPERP + _SWEEP, _rows_ctheta),
    "h-sweep": ("energy and PFA ratio versus H/R", ("radius",) + _CPERP + _SWEEP,
                _rows_hsweep),
    "thermal": ("finite-temperature energy per unit length",
                _ENERGY + ("tolerance", "temperature"), _rows_thermal),
    "pfa": ("proximity force approximation baseline", ("radius", "separation"),
            _rows_pfa),
    "validate": ("run the internal identity suite", (), _rows_validate),
}


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(stream, config: RunConfig, header, rows):
    for key, value in sorted(config.to_dict().items()):
        stream.write(f"# {key} = {value}\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_format_cell(row[key]) for key in header])


def _write_json(stream, config: RunConfig, header, rows):
    stream.write(json.dumps({"config": config.to_dict()}, sort_keys=True))
    stream.write("\n")
    for row in rows:
        stream.write(json.dumps({key: row[key] for key in header}))
        stream.write("\n")


def _emit(config: RunConfig, write) -> None:
    """Call ``write`` on the output: the ``--output`` file, opened now, or stdout."""
    if config.path:
        with open(config.path, "w", encoding="utf-8", newline="") as stream:
            write(stream)
    else:
        write(sys.stdout)


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit status.

    0: all requested computations converged.  1: a physical-regime or
    accuracy error occurred (a machine-readable JSON diagnostic is
    written to the output), or a validation check failed.  Nothing is
    written, and ``--output`` is not opened, before the command has a
    table or a diagnostic; any other error propagates first.
    """
    try:
        rows, converged = COMMANDS[config.command][2](config)
    except (PhysicalRegimeError, AccuracyError) as exc:
        record = json.dumps({"error": type(exc).__name__, "message": str(exc)})
        _emit(config, lambda stream: stream.write(record + "\n"))
        return 1
    header = list(rows[0])
    writer = _write_csv if config.format == "csv" else _write_json
    _emit(config, lambda stream: writer(stream, config, header, rows))
    return 0 if converged else 1


def main(argv=None) -> int:
    """Console entry point.

    A rejected argument, or a config or output file that cannot be
    opened, is reported on stderr with exit status 2.
    """
    try:
        return run(build_config(argv))
    except (DomainError, OSError) as exc:
        print(f"paracasimir: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
