"""Command-line front end: budget, sweep, optimize, verify, dump-config.

Output contract: CSV with a fixed header and 12-significant-digit
scientific notation goes to --out (default stdout); the human-readable
summary goes to stderr so piping the CSV stays clean.  Exit codes are
0 success, 1 configuration error, 2 verification failure, 3 numerical
failure.

Only config is imported at module level; each command imports the
modules it needs once its configuration has loaded.  budget and sweep
are one budget.sweep call each: budget's list of frequencies runs in
floats without numpy, and sweep's array is one numpy grid.  The CSV of
budget's list columns is formatted row by row with %, that of sweep's
array columns by the numpy kernel csvrows.csv_rows; both write the same
bytes.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import __version__, config
from .errors import NetworkSolveError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_NUMERICAL = 3

_NUMBER = "%.11e"  # 12 significant digits
_fmt = _NUMBER.__mod__


def _default_config_text() -> str:
    path = os.path.join(os.path.dirname(__file__), "data", "microscope.cfg")
    return __spec__.loader.get_data(path).decode("utf-8")     # this module's own loader


def _load(args) -> config.RunConfig:
    if args.config is None:
        return config.loads(_default_config_text(), path="<builtin microscope.cfg>")
    return config.load(args.config)


def _csv(table, digest: str) -> str:
    """CSV of a grid budget (list or array columns), one row per point, omega in Hz."""
    omega, *rest = vars(table).values()
    header = ",".join(["frequency_hz", *list(vars(table))[1:], "config_digest", "tool_version"])
    tail = f",{digest},{__version__}\n"
    if isinstance(omega, list):         # budget's float path, without numpy
        row = ",".join([_NUMBER] * (1 + len(rest))) + tail
        body = "".join(map(row.__mod__, zip([w / (2.0 * math.pi) for w in omega], *rest)))
    else:
        from .csvrows import csv_rows
        body = csv_rows([omega / (2.0 * math.pi), *rest], tail)
    return header + "\n" + body


def _write(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _geometric_grid(lo: float, hi: float, n: int, axis: str) -> list[float]:
    """n geometric points from lo to hi; a frequency axis is read in Hz and given in rad/s."""
    if n < 1:
        raise config.ConfigError("points must be >= 1")
    if not (0.0 < lo < math.inf and 0.0 < hi < math.inf):
        raise config.ConfigError(f"{axis} bounds must be positive and finite, "
                                 f"got {lo!r} and {hi!r}")
    if n == 1 and lo != hi:
        raise config.ConfigError("points=1 requires equal bounds")
    if n > 1 and lo >= hi:
        raise config.ConfigError(f"{axis} lower bound must be below the upper bound")
    scale = 2.0 * math.pi if axis == "frequency" else 1.0
    step = (hi / lo) ** (1.0 / max(n - 1, 1))
    if step == math.inf:   # hi / lo overflows, though lo and hi are floats: lo^(1-t) hi^t
        grid = [scale * (lo ** (1.0 - k / (n - 1)) * hi ** (k / (n - 1))) for k in range(n)]
    else:
        try:
            grid = [scale * (lo * step**k) for k in range(n)]
        except OverflowError:  # step**k rounded past the largest float
            grid = [math.inf]
    if grid[-1] == math.inf:
        raise config.ConfigError(f"{axis} grid leaves the float range")
    return grid


def cmd_budget(args) -> int:
    cfg = _load(args)
    from . import budget
    if args.freq_min is None and args.freq_max is None and args.points == 1:
        omegas = [cfg.omega]
    else:
        lo = args.freq_min if args.freq_min is not None else cfg.frequency
        hi = args.freq_max if args.freq_max is not None else cfg.frequency
        omegas = _geometric_grid(lo, hi, args.points, "frequency")
    points = budget.sweep(cfg.params, "frequency", omegas)    # a list: no numpy
    digest = cfg.digest
    _write(_csv(points, digest), args.out)
    head = points[min(range(len(omegas)), key=lambda k: abs(omegas[k] - cfg.omega))]
    print(
        f"coldamp budget ({digest}): at {head.omega / (2 * math.pi):.6g} Hz "
        f"force noise {head.sigma_ff:.4e} N^2/Hz, "
        f"sensitivity {head.accel_sensitivity:.4e} m s^-2/sqrt(Hz)",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load(args)
    from . import budget
    import numpy as np
    grid = np.array(_geometric_grid(args.min, args.max, args.points, args.axis))
    points = budget.sweep(cfg.params, args.axis, grid, omega=cfg.omega)
    digest = cfg.digest
    _write(_csv(points, digest), args.out)
    print(f"coldamp sweep ({digest}): {len(points)} points over {args.axis}",
          file=sys.stderr)
    return EXIT_OK


def cmd_optimize(args) -> int:
    cfg = _load(args)
    from . import matching
    m = matching.optimal_matching(cfg.params, cfg.omega)
    ratio_num, sigma_num = matching.numerical_matching(cfg.params, cfg.omega)
    residuals = (abs(ratio_num - m.ratio_opt) / m.ratio_opt,
                 abs(sigma_num - m.sigma_opt) / m.sigma_opt)
    if not all(map(math.isfinite, residuals)):    # max() would drop a nan
        raise ValueError(f"the numerical matching leaves the float range: ratio = {ratio_num}, "
                         f"value = {sigma_num}")
    residual = max(residuals)
    print(f"optimal R_a/R_m ratio : {_fmt(m.ratio_opt)}")
    print(f"minimum force noise   : {_fmt(m.sigma_opt)} N^2/Hz")
    print(f"  thermal part        : {_fmt(m.langevin_part)} N^2/Hz")
    print(f"  detection part      : {_fmt(m.detection_part)} N^2/Hz")
    print(f"numerical cross-check : {residual:.3e} relative")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load(args)
    from . import verify
    results = verify.run_checks(cfg.params, cfg.omega, draws=args.draws, seed=args.seed)
    for result in results:
        print(result)
    if all(r.passed for r in results):
        print("verification passed")
        return EXIT_OK
    print("verification FAILED", file=sys.stderr)
    return EXIT_VERIFY


def cmd_dump_config(args) -> int:
    _write(config.dumps(_load(args)), args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument as a one-line configuration error (exit 1)."""

    def error(self, message):
        raise config.ConfigError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="coldamp",
        description="Noise budget of a cold-damped capacitive accelerometer.",
    )
    parser.add_argument("--version", action="version", version=f"coldamp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="configuration file (default: built-in design point)")

    sp = sub.add_parser("budget", help="noise budget at one or more frequencies")
    common(sp)
    sp.add_argument("--freq-min", type=float, help="lowest frequency, Hz (default: the config's)")
    sp.add_argument("--freq-max", type=float, help="highest frequency, Hz (default: the config's)")
    sp.add_argument("--points", type=int, default=1, help="number of grid points")
    sp.add_argument("--out", help="CSV output path (default stdout)")
    sp.set_defaults(func=cmd_budget)

    sp = sub.add_parser("sweep", help="budget sweep along one axis")
    common(sp)
    sp.add_argument("--axis", default="frequency",
                    help="'frequency' (Hz) or a parameter name such as R_a")
    sp.add_argument("--min", type=float, required=True)
    sp.add_argument("--max", type=float, required=True)
    sp.add_argument("--points", type=int, default=25)
    sp.add_argument("--out", help="CSV output path (default stdout)")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("optimize", help="amplifier/mechanical impedance matching")
    common(sp)
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("verify", help="closed forms against the network oracle")
    common(sp)
    sp.add_argument("--draws", type=int, default=40, help="random parameter draws")
    sp.add_argument("--seed", type=int, default=0, help="RNG seed")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("dump-config", help="canonical form of the configuration")
    common(sp)
    sp.add_argument("--out", help="output path (default stdout)")
    sp.set_defaults(func=cmd_dump_config)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (config.ConfigError, OSError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NetworkSolveError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
