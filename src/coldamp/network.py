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
    complete_ports: list[str] = field(default_factory=list)
    observables: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.equations) != len(self.variables):
            raise ValueError(
                f"system must be square: {len(self.equations)} equations, "
                f"{len(self.variables)} unknowns"
            )


@dataclass
class ScatteringResult:
    """Solved network: S-matrix, transfer rows and solve diagnostics.

    condition is always nan (not computed); the benchmark's tracer
    (bench/tracer.py) reads it on every solve.
    """

    ports: list[str]
    s_matrix: np.ndarray | None           # outgoing ports x incoming ports
    transfer_rows: dict[str, np.ndarray]  # observable -> row over incoming + drives
    condition: float
    residual: float
    conjugated: dict[str, bool]


def solve(net: LinearNetwork, scattering: bool = True) -> ScatteringResult:
    """Direct dense solve of the raw network matrix at its frequency.

    Returns the scattering matrix over the declared ports (with canonical
    completion rows for amplifier ports, see below) and the raw transfer
    rows of the declared observables over incoming fields and drives.
    With scattering=False only the transfer rows and diagnostics are
    computed (s_matrix is None); this skips the completion step, which
    costs an extra decomposition per solve.
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

    residual = float(
        np.abs(a @ x - b).max()
        / max(np.abs(a).max() * max(np.abs(x).max(), 1.0), np.abs(b).max())
    )

    ports = list(net.incoming)
    s = None
    if scattering:
        s = np.zeros((len(ports), len(ports)), dtype=complex)
        physical = []
        for k, port in enumerate(ports):
            if port in net.complete_ports:
                continue
            if port not in net.outgoing:
                raise ValueError(
                    f"port {port!r} has neither an out-field variable nor a completion slot")
            s[k, :] = x[var_index[net.outgoing[port]], : len(ports)]
            physical.append(k)
        if net.complete_ports:
            s = _complete_amplifier_rows(s, ports, physical, net)

    return ScatteringResult(
        ports=ports,
        s_matrix=s,
        transfer_rows={name: x[var_index[var]] for name, var in net.observables.items()},
        condition=math.nan,
        residual=residual,
        conjugated=dict(net.conjugated),
    )


def _complete_amplifier_rows(s, ports, physical, net):
    """Fill the amplified out-field rows by canonical completion.

    The ideal amplifier pins its input on the noise fields with no
    back-reaction, so the out fields of its own lines and of the line it
    drives are not commutator-preserving observables of the idealized
    equations (the model is exact for symmetrized spectra only).  The
    S-matrix reported here is the canonical dilation: the passive rows
    are the solved physics, while the amplified rows span the
    metric-orthogonal complement with the conjugation signature of their
    ports.  The falsifiable content of the commutator check is the
    orthonormality of the passive rows and the existence of a complement
    with the right signature; the physical signal content of the
    detection port is exposed through the transfer rows instead.
    """
    eta = np.array([-1.0 if net.conjugated.get(p, False) else 1.0 for p in ports])
    s_phys = s[physical, :]
    # Rows x with S_phys @ diag(eta) @ x^dag = 0: conj(x) spans the null
    # space of S_phys @ diag(eta), whose vectors are conjugated rows of
    # vh, so the rows themselves are the trailing vh rows unconjugated.
    _, sv, vh = np.linalg.svd(s_phys * eta[None, :])
    n_null = len(ports) - len(physical)
    basis = vh[-n_null:]
    gram = (basis * eta[None, :]) @ basis.conj().T
    gram = 0.5 * (gram + gram.conj().T)
    eigvals, eigvecs = np.linalg.eigh(gram)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    rows = (eigvecs.T.conj() @ basis) / np.sqrt(np.abs(eigvals))[:, None]

    slots = [k for k, p in enumerate(ports) if p in net.complete_ports]
    want = [-1.0 if net.conjugated.get(ports[k], False) else 1.0 for k in slots]
    have = list(np.sign(eigvals))
    if sorted(want) != sorted(have):
        raise NetworkSolveError(
            f"cannot complete amplifier rows: complement signature {have} "
            f"does not match ports {net.complete_ports} at omega = {net.omega:g}",
            omega=net.omega,
        )
    pos = [i for i, sg in enumerate(have) if sg > 0]
    neg = [i for i, sg in enumerate(have) if sg < 0]
    for k, sign in zip(slots, want):
        idx = pos.pop(0) if sign > 0 else neg.pop(0)
        s[k, :] = rows[idx]
    return s


def check_commutators(res: ScatteringResult) -> float:
    """Max |S eta S^dag - eta| entry, eta = diag of conjugation signs."""
    eta = np.array([-1.0 if res.conjugated.get(p, False) else 1.0 for p in res.ports])
    s = res.s_matrix
    return float(np.abs((s * eta[None, :]) @ s.conj().T - np.diag(eta)).max())


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

    outgoing = {"m": "m_out", "l1": "l1_out", "l2": "l2_out", "r1": "r1_out", "r2": "r2_out"}
    conjugated = {label: label.startswith("b") for label in LINE_LABELS}
    return LinearNetwork(
        variables=variables,
        incoming=list(LINE_LABELS),
        drives=["F_ext"],
        equations=eqs,
        outgoing=outgoing,
        conjugated=conjugated,
        omega=omega,
        complete_ports=["a1", "a2", "b1", "b2", "r1", "r2"],
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
