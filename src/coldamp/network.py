"""Independent numerical oracle for the sensor's linear quantum network.

The raw element relations (resistive/mechanical line laws, the transducer
three-port, the charge-amplifier equations and optionally the feedback
force) are assembled into one complex linear system per frequency and
solved directly.  Nothing here reuses the closed-form coefficient
expressions, so agreement between the two routes is a real check.

Electrical quantities are represented per carrier quadrature.  A purely
reactive feedback impedance is odd in frequency, so it couples the two
quadratures: U_f1 = i Z_f I_f2 and U_f2 = -i Z_f I_f1.  The detuned
transducer impedance is even across the sidebands and stays diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import HBAR
from .noise import LINE_LABELS
from .params import InstrumentParams

class NetworkSolveError(RuntimeError):
    """Raised when the network matrix is singular at some frequency."""

    def __init__(self, message: str, omega: float):
        super().__init__(message)
        self.omega = omega


@dataclass
class LinearNetwork:
    """Named complex unknowns plus linear relations driving them.

    Each equation is a pair (lhs, rhs): lhs maps unknown names to
    coefficients, rhs maps incoming-field/drive names to coefficients,
    meaning sum(lhs) = sum(rhs).  The system must be square.
    """

    variables: list[str]
    incoming: list[str]
    drives: list[str]
    equations: list[tuple[dict[str, complex], dict[str, complex]]]
    outgoing: dict[str, str]              # port label -> out-field variable
    conjugated: dict[str, bool]
    omega: float
    observables: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.equations) != len(self.variables):
            raise ValueError(
                f"system must be square: {len(self.equations)} equations, "
                f"{len(self.variables)} unknowns"
            )


@dataclass
class ScatteringResult:
    """Solved network: passive S rows, transfer rows and solve diagnostics.

    s_matrix has one row per port with an out-field variable
    (out_ports), over all incoming ports (ports).  condition is always
    nan (not computed); the benchmark's tracer (bench/tracer.py) reads
    it on every solve.
    """

    ports: list[str]
    out_ports: list[str]
    s_matrix: np.ndarray
    transfer_rows: dict[str, np.ndarray]  # observable -> row over incoming + drives
    condition: float
    conjugated: dict[str, bool]


def solve(net: LinearNetwork) -> ScatteringResult:
    """Direct dense solve of the raw network matrix at its frequency.

    Returns the scattering rows of the ports that have an out-field
    variable and the raw transfer rows of the declared observables over
    incoming fields and drives.
    """
    n = len(net.variables)
    var_index = {name: i for i, name in enumerate(net.variables)}
    columns = list(net.incoming) + list(net.drives)
    col_index = {name: j for j, name in enumerate(columns)}

    a = np.zeros((n, n), dtype=complex)
    b = np.zeros((n, len(columns)), dtype=complex)
    for i, (lhs, rhs) in enumerate(net.equations):
        for name, coef in lhs.items():
            a[i, var_index[name]] += coef
        for name, coef in rhs.items():
            b[i, col_index[name]] += coef

    try:
        x = np.linalg.solve(a, b)
        # Two steps of iterative refinement with an extended-precision
        # residual (mixed-precision refinement, Higham ch. 12) push the
        # forward error down to rounding level even though the raw matrix
        # is ill-conditioned; no scaling is needed on top.
        a_e = a.astype(np.clongdouble)
        b_e = b.astype(np.clongdouble)
        for _ in range(2):
            r = b_e - a_e @ x.astype(np.clongdouble)
            x = x + np.linalg.solve(a, r.astype(complex))
    except np.linalg.LinAlgError as exc:
        raise NetworkSolveError(
            f"singular network matrix at omega = {net.omega:g} rad/s: {exc}",
            omega=net.omega,
        ) from exc
    if not np.isfinite(x).all():
        raise NetworkSolveError(
            f"non-finite network solution at omega = {net.omega:g} rad/s",
            omega=net.omega,
        )

    rows = [var_index[var] for var in net.outgoing.values()]
    return ScatteringResult(
        ports=list(net.incoming),
        out_ports=list(net.outgoing),
        s_matrix=x[rows, :len(net.incoming)],
        transfer_rows={name: x[var_index[var]] for name, var in net.observables.items()},
        condition=math.nan,
        conjugated=dict(net.conjugated),
    )


def check_commutators(res: ScatteringResult) -> float:
    """Max |S eta S^dag - eta| entry relative to the rows it involves.

    eta holds the conjugation signs of the ports.  Raw S entries grow
    without bound on extreme parameter draws, so entry (i, j) is divided
    by the norms of rows i and j, each floored at 1 (unitary networks
    keep the absolute figure).

    Only passive lines have S rows: the ideal amplifier pins its input
    with no back-reaction and is exact for symmetrized spectra only
    (Caves, PRD 26, 1817 (1982)), so its out fields, and that of the
    line it drives, are not commutator-preserving observables.
    """
    eta = {p: -1.0 if res.conjugated.get(p, False) else 1.0 for p in res.ports}
    s = res.s_matrix
    cols = np.array([eta[p] for p in res.ports])
    d = (s * cols) @ s.conj().T - np.diag([eta[p] for p in res.out_ports])
    norms = np.maximum(1.0, np.linalg.norm(s, axis=1))
    return float((np.abs(d) / np.outer(norms, norms)).max())


def build_sensor_network(p: InstrumentParams, gain: complex | None, omega: float) -> LinearNetwork:
    """Raw element relations of the capacitive sensor at frequency Omega.

    gain is the servo loop gain G_s (None for the open-loop sensor).
    One node per electrical quadrature carries the transducer port, the
    loss line and the amplifier input; the charge amplifier's reactive
    feedback couples the quadratures.
    """
    if omega == 0.0:
        raise ValueError("frequency must be nonzero")
    h_m = p.H_m
    xi_m = h_m - 1j * p.M * omega + 1j * p.K / omega
    z_t = p.z_t(omega)
    z_f = p.z_f
    wt = p.omega_t
    kt = p.kappa_t

    c_mech = math.sqrt(2.0 * HBAR * abs(omega) * h_m)        # Langevin force per field
    c_mech_out = math.sqrt(2.0 * h_m / (HBAR * abs(omega)))  # velocity -> out field
    c_volt = math.sqrt(2.0 * HBAR * wt * p.R_a)              # amplifier voltage noise
    c_curr = math.sqrt(2.0 * HBAR * wt / p.R_a)              # amplifier current noise
    c_loss = math.sqrt(2.0 * HBAR * wt * p.R_l)
    c_loss_out = math.sqrt(2.0 / (HBAR * wt * p.R_l))
    c_det_out = math.sqrt(2.0 / (HBAR * wt * p.R_r))

    variables = [
        "V", "m_out",
        "U_1", "U_2", "I_t1", "I_t2", "I_f1", "I_f2", "I_l1", "I_l2",
        "U_r1", "U_r2", "l1_out", "l2_out", "r1_out", "r2_out",
    ]
    eqs: list[tuple[dict, dict]] = []

    # Equation of motion; the feedback force enters only in closed loop.
    motion_lhs = {"V": xi_m, "I_t1": kt * z_t}
    if gain is not None:
        motion_lhs["r1_out"] = gain
    eqs.append((motion_lhs, {"F_ext": 1.0, "m": -c_mech}))
    # Mechanical line out field.
    eqs.append(({"m_out": 1.0, "V": -c_mech_out}, {"m": 1.0}))
    # Transducer three-port.
    eqs.append(({"U_1": 1.0, "I_t1": -z_t}, {}))
    eqs.append(({"U_2": 1.0, "I_t2": -z_t, "V": -2j * kt * z_t * wt / omega}, {}))
    # Amplifier voltage noise pins the input node, per quadrature.
    eqs.append(({"U_1": 1.0}, {"a1": c_volt, "b1": -c_volt}))
    eqs.append(({"U_2": 1.0}, {"a2": c_volt, "b2": -c_volt}))
    # Current balance at the input node, per quadrature.
    eqs.append(({"I_l1": 1.0, "I_f1": 1.0, "I_t1": 1.0}, {"a1": c_curr, "b1": c_curr}))
    eqs.append(({"I_l2": 1.0, "I_f2": 1.0, "I_t2": 1.0}, {"a2": c_curr, "b2": c_curr}))
    # Feedback element, quadrature-coupled because Z_f is frequency-odd.
    eqs.append(({"U_1": 1.0, "U_r1": -1.0, "I_f2": -1j * z_f}, {}))
    eqs.append(({"U_2": 1.0, "U_r2": -1.0, "I_f1": 1j * z_f}, {}))
    # Loss line, per quadrature.
    eqs.append(({"U_1": 1.0, "I_l1": -p.R_l}, {"l1": c_loss}))
    eqs.append(({"U_2": 1.0, "I_l2": -p.R_l}, {"l2": c_loss}))
    eqs.append(({"l1_out": 1.0, "U_1": -c_loss_out}, {"l1": -1.0}))
    eqs.append(({"l2_out": 1.0, "U_2": -c_loss_out}, {"l2": -1.0}))
    # Detection line driven by the null-impedance amplifier output.
    eqs.append(({"r1_out": 1.0, "U_r1": -c_det_out}, {"r1": -1.0}))
    eqs.append(({"r2_out": 1.0, "U_r2": -c_det_out}, {"r2": -1.0}))

    outgoing = {"m": "m_out", "l1": "l1_out", "l2": "l2_out"}
    conjugated = {label: label.startswith("b") for label in LINE_LABELS}
    return LinearNetwork(
        variables=variables,
        incoming=list(LINE_LABELS),
        drives=["F_ext"],
        equations=eqs,
        outgoing=outgoing,
        conjugated=conjugated,
        omega=omega,
        observables={"velocity": "V", "detected": "r1_out"},
    )


def normalized_row(row: np.ndarray) -> np.ndarray:
    """Sensor transfer row over LINE_LABELS, normalized to unit F_ext response.

    The row runs over the sensor network's incoming fields, LINE_LABELS,
    then its one drive, F_ext.
    """
    drive = row[len(LINE_LABELS)]
    if drive == 0:
        raise ZeroDivisionError("transfer row has no drive response; cannot normalize")
    return row[:len(LINE_LABELS)] / drive


def build_matched_junction(r_1: float, r_2: float, omega: float) -> LinearNetwork:
    """Two lines joined at a node; matched impedances swap the ports."""
    if omega == 0.0:
        raise ValueError("frequency must be nonzero")
    c_1 = math.sqrt(2.0 * HBAR * abs(omega) * r_1)
    c_2 = math.sqrt(2.0 * HBAR * abs(omega) * r_2)
    eqs = [
        ({"U": 1.0, "I_1": -r_1}, {"p1": c_1}),
        ({"U": 1.0, "I_2": -r_2}, {"p2": c_2}),
        ({"I_1": 1.0, "I_2": 1.0}, {}),
        ({"p1_out": 1.0, "U": -2.0 / c_1}, {"p1": -1.0}),
        ({"p2_out": 1.0, "U": -2.0 / c_2}, {"p2": -1.0}),
    ]
    return LinearNetwork(
        variables=["U", "I_1", "I_2", "p1_out", "p2_out"],
        incoming=["p1", "p2"],
        drives=[],
        equations=eqs,
        outgoing={"p1": "p1_out", "p2": "p2_out"},
        conjugated={"p1": False, "p2": False},
        omega=omega,
    )


def build_open_line(r: float, omega: float) -> LinearNetwork:
    """A line terminated by an open circuit: total reflection."""
    if omega == 0.0:
        raise ValueError("frequency must be nonzero")
    c = math.sqrt(2.0 * HBAR * abs(omega) * r)
    eqs = [
        ({"U": 1.0, "I": -r}, {"p": c}),
        ({"I": 1.0}, {}),
        ({"p_out": 1.0, "U": -2.0 / c}, {"p": -1.0}),
    ]
    return LinearNetwork(
        variables=["U", "I", "p_out"],
        incoming=["p"],
        drives=[],
        equations=eqs,
        outgoing={"p": "p_out"},
        conjugated={"p": False},
        omega=omega,
    )
