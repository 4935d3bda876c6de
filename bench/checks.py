"""Correctness checks for coldamp outputs, one per benchmark operation.

Each check takes what one CLI call produced and returns None when the
output honours the documented contract, or a one-line description of
the first problem found.  The checks use only the standard library, so
they judge coldamp's output without going through coldamp's own code.
"""

from __future__ import annotations

import hashlib
import math
import re

CSV_COLUMNS = (
    "frequency_hz", "delta",
    "sigma_vfr", "sigma_vse", "sigma_cross", "sigma_ff",
    "langevin", "back_action", "sensing", "interference",
    "accel_sensitivity", "config_digest", "tool_version",
)
_NUMERIC = 11                 # the leading numeric columns
IDENTITY_TOL = 1e-12          # sigma_ff = H_m^2 (1+delta^2)(vfr+vse+cross)
PRINT_REL = 5e-12             # half a unit in the 12th significant digit
MATCHING_TOL = 1e-6           # optimize's printed numerical cross-check

_CROSS_CHECK = re.compile(r"^numerical cross-check\s*:\s*(\S+) relative$", re.MULTILINE)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _identity_error(h_m: float, v: list[float]) -> tuple[float, float]:
    """Residual of the force/velocity identity and its allowed size.

    The CSV prints 12 significant digits, so every re-parsed field may be
    off by PRINT_REL of itself.  The allowance is IDENTITY_TOL plus that
    rounding carried through the right-hand side (delta enters squared).
    """
    _, delta, vfr, vse, cross, sff = v[:6]
    scale = h_m * h_m
    s = vfr + vse + cross
    rhs = scale * (1.0 + delta * delta) * s
    spread = abs(vfr) + abs(vse) + abs(cross)
    rounding = PRINT_REL * (abs(sff) + scale * ((1.0 + delta * delta) * spread
                                                 + 2.0 * delta * delta * abs(s)))
    return abs(sff - rhs), 1.01 * (IDENTITY_TOL * abs(sff) + rounding)


def budget_csv(text: str, h_m: float, rows: int, first: float | None = None,
               last: float | None = None) -> str | None:
    """A budget/sweep CSV: header, row count, finite re-parsed fields, identity.

    first/last, when given, are the requested frequency endpoints in Hz.
    """
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        return "CSV header differs from the documented columns"
    body = lines[1:]
    if len(body) != rows:
        return f"expected {rows} CSV rows, got {len(body)}"
    freqs = []
    for n, line in enumerate(body, start=1):
        fields = line.split(",")
        if len(fields) != len(CSV_COLUMNS):
            return f"row {n}: {len(fields)} fields"
        try:
            v = [float(x) for x in fields[:_NUMERIC]]
        except ValueError:
            return f"row {n}: a numeric field does not parse"
        if not all(math.isfinite(x) for x in v):
            return f"row {n}: non-finite value"
        err, allowed = _identity_error(h_m, v)
        if not err <= allowed:
            return f"row {n}: force/velocity identity off by {err:.3e} (allowed {allowed:.3e})"
        freqs.append(v[0])
    for name, want, got in (("first", first, freqs[0]), ("last", last, freqs[-1])):
        if want is not None and abs(got - want) > 2.0 * PRINT_REL * abs(want):
            return f"{name} frequency {got!r} differs from the requested {want!r}"
    return None


def matching_report(text: str) -> str | None:
    """optimize: its printed cross-check must agree with the closed form."""
    m = _CROSS_CHECK.search(text)
    if m is None:
        return "no numerical cross-check line"
    residual = float(m.group(1))
    if not residual < MATCHING_TOL:
        return f"numerical cross-check {residual:.3e} is not below {MATCHING_TOL:g}"
    return None


def verify_report(text: str) -> str | None:
    """verify: every printed CheckResult must pass."""
    results = [line for line in text.splitlines() if line.startswith("[")]
    if not results:
        return "no check results printed"
    for line in results:
        if not line.startswith("[ok"):
            return f"check failed: {line}"
    if "verification passed" not in text.splitlines():
        return "no 'verification passed' line"
    return None


def outcome(rc: int | None, err: str, expected_rc: int) -> str | None:
    """The exit code and stderr every CLI call must honour.

    A traceback is always a failure; a configuration error must also fit
    on one stderr line.
    """
    if "Traceback (most recent call last)" in err:
        return "traceback: " + err.strip().splitlines()[-1]
    if rc != expected_rc:
        return f"exit code {rc}, expected {expected_rc}"
    if expected_rc == 1 and len(err.strip().splitlines()) != 1:
        return "configuration error is not a one-line message"
    return None
