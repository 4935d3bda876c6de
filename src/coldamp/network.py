"""Independent numerical oracle for the sensor's linear quantum network.

The raw element relations (resistive/mechanical line laws, the transducer
three-port, the charge-amplifier laws and optionally the feedback
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
from .errors import NetworkSolveError
from .noise import LINE_LABELS
from .params import InstrumentParams


@dataclass
class LinearNetwork:
    """Assembled linear relations a x = b of one network at one frequency.

    Each row is one element relation.  Columns of a are the unknowns;
    columns of b are the incoming fields, in the order of incoming, then
    any external drives.  outgoing maps each port with an out-field
    unknown to that unknown's column of a; observables name further
    unknowns whose transfer rows solve returns.
    """

    a: np.ndarray
    b: np.ndarray
    incoming: list[str]
    outgoing: dict[str, int]              # port label -> out-field unknown
    conjugated: dict[str, bool]
    omega: float
    observables: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.a)
        if self.a.shape != (n, n) or self.b.shape[:1] != (n,):
            raise ValueError(
                f"system must be square: a is {self.a.shape}, b is {self.b.shape}"
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
    a, b = net.a, net.b
    try:
        x = np.linalg.solve(a, b)
        # The raw matrix is ill-conditioned through the scales of its
        # entries.  One refinement step with a float64 residual
        # (fixed-precision refinement: Skeel, Math. Comp. 35 (1980);
        # Higham ch. 12) restores componentwise stability and brings the
        # forward error to rounding level; unrefined, some draws miss
        # ORACLE_TOL.
        x = x + np.linalg.solve(a, b - a @ x)
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

    return ScatteringResult(
        ports=list(net.incoming),
        out_ports=list(net.outgoing),
        s_matrix=x[list(net.outgoing.values()), :len(net.incoming)],
        transfer_rows={name: x[j] for name, j in net.observables.items()},
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


# Unknowns of the sensor network: the proof-mass velocity, the out
# fields, and per electrical quadrature the node voltage, the branch
# currents (transducer, feedback, loss) and the amplifier output.
_SENSOR_UNKNOWNS = (
    "V", "m_out",
    "U_1", "U_2", "I_t1", "I_t2", "I_f1", "I_f2", "I_l1", "I_l2",
    "U_r1", "U_r2", "l1_out", "l2_out", "r1_out", "r2_out",
)
# Element relations, one pair (lhs, rhs) per row meaning sum(lhs) =
# sum(rhs): lhs over the unknowns, rhs over LINE_LABELS and the F_ext
# drive.  A str coefficient names a per-point value supplied by
# build_sensor_network.
_SENSOR_RELATIONS = (
    # Equation of motion; the feedback force enters only in closed loop.
    ({"V": "xi_m", "I_t1": "kt*z_t", "r1_out": "gain"}, {"F_ext": 1.0, "m": "-c_mech"}),
    # Mechanical line out field.
    ({"m_out": 1.0, "V": "-c_mech_out"}, {"m": 1.0}),
    # Transducer three-port.
    ({"U_1": 1.0, "I_t1": "-z_t"}, {}),
    ({"U_2": 1.0, "I_t2": "-z_t", "V": "-2j*kt*z_t*wt/omega"}, {}),
    # Amplifier voltage noise pins the input node, per quadrature.
    ({"U_1": 1.0}, {"a1": "c_volt", "b1": "-c_volt"}),
    ({"U_2": 1.0}, {"a2": "c_volt", "b2": "-c_volt"}),
    # Current balance at the input node, per quadrature.
    ({"I_l1": 1.0, "I_f1": 1.0, "I_t1": 1.0}, {"a1": "c_curr", "b1": "c_curr"}),
    ({"I_l2": 1.0, "I_f2": 1.0, "I_t2": 1.0}, {"a2": "c_curr", "b2": "c_curr"}),
    # Feedback element, quadrature-coupled because Z_f is frequency-odd.
    ({"U_1": 1.0, "U_r1": -1.0, "I_f2": "-1j*z_f"}, {}),
    ({"U_2": 1.0, "U_r2": -1.0, "I_f1": "1j*z_f"}, {}),
    # Loss line, per quadrature.
    ({"U_1": 1.0, "I_l1": "-R_l"}, {"l1": "c_loss"}),
    ({"U_2": 1.0, "I_l2": "-R_l"}, {"l2": "c_loss"}),
    ({"l1_out": 1.0, "U_1": "-c_loss_out"}, {"l1": -1.0}),
    ({"l2_out": 1.0, "U_2": "-c_loss_out"}, {"l2": -1.0}),
    # Detection line driven by the null-impedance amplifier output.
    ({"r1_out": 1.0, "U_r1": "-c_det_out"}, {"r1": -1.0}),
    ({"r2_out": 1.0, "U_r2": "-c_det_out"}, {"r2": -1.0}),
)


def _template(side: int, columns: tuple[str, ...]):
    """One side (0: a, 1: b) of the sensor relations, for _fill.

    Returns the matrix of constant entries, the (rows, cols) index
    arrays of the per-point entries and their value names.
    """
    index = {name: j for j, name in enumerate(columns)}
    matrix = np.zeros((len(_SENSOR_RELATIONS), len(columns)), dtype=complex)
    rows, cols, names = [], [], []
    for i, relation in enumerate(_SENSOR_RELATIONS):
        for name, coef in relation[side].items():
            if isinstance(coef, str):
                rows.append(i)
                cols.append(index[name])
                names.append(coef)
            else:
                matrix[i, index[name]] = coef
    return matrix, (np.array(rows), np.array(cols)), tuple(names)


_SENSOR_A = _template(0, _SENSOR_UNKNOWNS)
_SENSOR_B = _template(1, (*LINE_LABELS, "F_ext"))
_SENSOR_OUTGOING = {port: _SENSOR_UNKNOWNS.index(f"{port}_out") for port in ("m", "l1", "l2")}
_SENSOR_OBSERVABLES = {"velocity": _SENSOR_UNKNOWNS.index("V"),
                       "detected": _SENSOR_UNKNOWNS.index("r1_out")}
_SENSOR_CONJUGATED = {label: label.startswith("b") for label in LINE_LABELS}


def _fill(template, values: dict[str, complex]) -> np.ndarray:
    """A copy of a template matrix with its named per-point entries set."""
    matrix, at, names = template
    out = matrix.copy()
    out[at] = [values[name] for name in names]
    return out


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
    z_t = p.z_t(omega)
    z_f = p.z_f
    wt = p.omega_t
    kt = p.kappa_t
    c_volt = math.sqrt(2.0 * HBAR * wt * p.R_a)              # amplifier voltage noise
    values = {
        "xi_m": h_m - 1j * p.M * omega + 1j * p.K / omega,
        "kt*z_t": kt * z_t,
        "gain": 0.0 if gain is None else gain,
        "-c_mech": -math.sqrt(2.0 * HBAR * abs(omega) * h_m),          # Langevin force
        "-c_mech_out": -math.sqrt(2.0 * h_m / (HBAR * abs(omega))),    # velocity -> out field
        "-z_t": -z_t,
        "-2j*kt*z_t*wt/omega": -2j * kt * z_t * wt / omega,
        "c_volt": c_volt,
        "-c_volt": -c_volt,
        "c_curr": math.sqrt(2.0 * HBAR * wt / p.R_a),                  # amplifier current noise
        "-1j*z_f": -1j * z_f,
        "1j*z_f": 1j * z_f,
        "-R_l": -p.R_l,
        "c_loss": math.sqrt(2.0 * HBAR * wt * p.R_l),
        "-c_loss_out": -math.sqrt(2.0 / (HBAR * wt * p.R_l)),
        "-c_det_out": -math.sqrt(2.0 / (HBAR * wt * p.R_r)),
    }
    return LinearNetwork(a=_fill(_SENSOR_A, values), b=_fill(_SENSOR_B, values),
                         incoming=list(LINE_LABELS), outgoing=_SENSOR_OUTGOING,
                         conjugated=_SENSOR_CONJUGATED, omega=omega,
                         observables=_SENSOR_OBSERVABLES)


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
    # Unknowns U, I_1, I_2, p1_out, p2_out; incoming p1, p2.
    a = np.array([[1.0, -r_1, 0.0, 0.0, 0.0], [1.0, 0.0, -r_2, 0.0, 0.0],
                  [0.0, 1.0, 1.0, 0.0, 0.0], [-2.0 / c_1, 0.0, 0.0, 1.0, 0.0],
                  [-2.0 / c_2, 0.0, 0.0, 0.0, 1.0]], dtype=complex)
    b = np.array([[c_1, 0.0], [0.0, c_2], [0.0, 0.0], [-1.0, 0.0], [0.0, -1.0]], dtype=complex)
    return LinearNetwork(a=a, b=b, incoming=["p1", "p2"], outgoing={"p1": 3, "p2": 4},
                         conjugated={"p1": False, "p2": False}, omega=omega)


def build_open_line(r: float, omega: float) -> LinearNetwork:
    """A line terminated by an open circuit: total reflection."""
    if omega == 0.0:
        raise ValueError("frequency must be nonzero")
    c = math.sqrt(2.0 * HBAR * abs(omega) * r)
    # Unknowns U, I, p_out; incoming p.
    a = np.array([[1.0, -r, 0.0], [0.0, 1.0, 0.0], [-2.0 / c, 0.0, 1.0]], dtype=complex)
    b = np.array([[c], [0.0], [-1.0]], dtype=complex)
    return LinearNetwork(a=a, b=b, incoming=["p"], outgoing={"p": 2},
                         conjugated={"p": False}, omega=omega)
