"""Independent numerical oracle for the sensor's linear quantum network.

The raw element relations (resistive/mechanical line laws, the transducer
three-port, the charge-amplifier laws and optionally the feedback
force) are assembled into one complex linear system per point; arrays
of frequencies, gains or parameter sets give a stack of systems.  Each
relation ties two or three fields, so solve takes them in a
substitution order, one division per unknown, and leaves LAPACK only
the dense block of a feedback loop.  Nothing here reuses the
closed-form coefficient expressions, so agreement between the two
routes is a real check.

Electrical quantities are represented per carrier quadrature.  A purely
reactive feedback impedance is odd in frequency, so it couples the two
quadratures: U_f1 = i Z_f I_f2 and U_f2 = -i Z_f I_f1.  The detuned
transducer impedance is even across the sidebands and stays diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .constants import HBAR
from .errors import NetworkSolveError
from .noise import LINE_LABELS, check_frequency
from .params import InstrumentParams
from .sensor import _frequencies


@dataclass
class LinearNetwork:
    """Assembled linear relations a x = b of one network at one point.

    Each row is one element relation.  Columns of a are the unknowns;
    columns of b are the incoming fields, in the order of incoming, then
    any external drives.  outgoing maps each port with an out-field
    unknown to that unknown's column of a; observables name further
    unknowns whose transfer rows solve returns.  conjugated names the
    incoming ports that enter conjugated (the sensor's b1, b2); no out
    field is conjugated.  A stack of one layout (one system per
    frequency, gain or parameter set) carries a leading axis on a, b and
    omega, the frequency of each point.
    """

    a: np.ndarray
    b: np.ndarray
    incoming: list[str]
    outgoing: dict[str, int]              # port label -> out-field unknown
    omega: float | np.ndarray
    observables: dict[str, int] = field(default_factory=dict)
    conjugated: frozenset[str] = frozenset()

    def __post_init__(self):
        a, b = self.a.shape, self.b.shape
        if len(a) < 2 or a[-1] != a[-2] or b[:-1] != a[:-1]:
            raise ValueError(
                f"system must be square: a is {self.a.shape}, b is {self.b.shape}"
            )


@dataclass
class ScatteringResult:
    """Solved network: passive S rows, transfer rows and solve diagnostics.

    s_matrix has one row per out port of the network (net.outgoing) over
    its incoming ports (net.incoming), in their orders; a solved stack
    keeps its leading axis on s_matrix and the transfer rows.  condition
    is always nan (not computed); bench/tracer.py reads it on each solve.
    """

    s_matrix: np.ndarray
    transfer_rows: dict[str, np.ndarray]  # observable -> row over incoming + drives
    condition: float


class _Order(NamedTuple):
    """Substitution order of one nonzero pattern; see _substitution_order."""

    steps: tuple[tuple[int, int, tuple[int, ...]], ...]  # (relation, unknown, other unknowns)
    pivots: tuple[np.ndarray, np.ndarray]                # (relations, unknowns) of the steps
    block_rows: np.ndarray                               # relations of the dense block
    block_cols: np.ndarray                               # unknowns of the dense block
    feed: tuple[int, ...]                                # solved unknowns the block uses


# Substitution orders by the bytes of a nonzero pattern.
_ORDERS: dict[bytes, _Order] = {}


def _substitution_order(nonzero: np.ndarray) -> _Order:
    """Substitution order of an n x n nonzero pattern.

    Repeatedly takes the first relation with exactly one unknown not yet
    solved; that relation gives its unknown by one division.  The
    relations and unknowns left over form one dense block, a feedback
    loop.  Ordered so, the matrix is block lower triangular: the steps'
    pivots, then the block.
    """
    uses = [set(np.flatnonzero(row).tolist()) for row in nonzero]
    solved, steps, left = set(), [], list(range(len(uses)))
    while (r := next((r for r in left if len(uses[r] - solved) == 1), None)) is not None:
        (c,) = uses[r] - solved
        steps.append((r, c, tuple(sorted(uses[r] - {c}))))
        solved.add(c)
        left.remove(r)
    return _Order(
        steps=tuple(steps),
        pivots=tuple(np.array([s[k] for s in steps], dtype=np.intp) for k in (0, 1)),
        block_rows=np.array(left, dtype=np.intp),
        block_cols=np.array(sorted(set(range(len(uses))) - solved), dtype=np.intp),
        feed=tuple(sorted(set().union(*(uses[r] for r in left)) & solved)),
    )


def _solve_error(net: LinearNetwork, failed: np.ndarray, what: str) -> NetworkSolveError:
    """The solve error naming the first failed point of a stack."""
    omega = float(np.ravel(net.omega)[np.argmax(np.ravel(failed))])
    return NetworkSolveError(f"{what} at omega = {omega:g} rad/s", omega=omega)


def solve(net: LinearNetwork) -> ScatteringResult:
    """Solve the raw network relations in substitution order.

    Returns the scattering rows of the ports that have an out-field
    variable and the raw transfer rows of the declared observables over
    incoming fields and drives.  A stack is solved in one call; a
    failure names the frequency of the first failing point.

    The order comes from the nonzero pattern of a (over a stack, the
    union of its points' patterns): each relation that ties one unknown
    not yet solved gives that unknown by one division, summing its
    other terms elementwise in a fixed order, so a stacked point equals
    the point solved alone bit for bit when both have the stack's
    pattern.  The relations left over form one dense block, a feedback
    loop (6 x 6 for the closed-loop sensor; none in open loop), solved
    by LAPACK plus one refinement step.  The matrix is block
    triangular, so a zero pivot means it is singular at that point.
    """
    a, b = net.a, net.b
    n = a.shape[-1]
    nonzero = (a != 0).reshape(-1, n, n).any(axis=0)
    key = nonzero.tobytes()
    if (order := _ORDERS.get(key)) is None:
        order = _ORDERS[key] = _substitution_order(nonzero)
    zero = (a[..., order.pivots[0], order.pivots[1]] == 0).any(axis=-1)
    if zero.any():
        raise _solve_error(net, zero, "singular network matrix")
    x = np.empty(b.shape, dtype=np.result_type(a, b))
    # An overflow or invalid operation leaves a non-finite x, reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        for r, c, others in order.steps:
            rhs = b[..., r, :]
            for k in others:
                rhs = rhs - a[..., r, k, None] * x[..., k, :]
            x[..., c, :] = rhs / a[..., r, c, None]
        if len(rows := order.block_rows):
            cols = order.block_cols
            rhs = b[..., rows, :]
            for k in order.feed:
                rhs = rhs - a[..., rows, k, None] * x[..., k, None, :]
            block = a[..., rows[:, None], cols]
            try:
                y = np.linalg.solve(block, rhs)
                # The block is ill-conditioned through the scales of its
                # entries.  One refinement step with a float64 residual
                # (fixed-precision refinement: Skeel, Math. Comp. 35
                # (1980); Higham ch. 12) restores componentwise stability
                # and brings the forward error to rounding level.
                x[..., cols, :] = y + np.linalg.solve(block, rhs - block @ y)
            except np.linalg.LinAlgError as exc:
                # slogdet's sign is 0 exactly where LU meets a zero pivot.
                raise _solve_error(net, np.linalg.slogdet(block)[0] == 0,
                                   "singular network matrix") from exc
    failed = ~np.isfinite(x).all(axis=(-2, -1))
    if failed.any():
        raise _solve_error(net, failed, "non-finite network solution")

    return ScatteringResult(
        s_matrix=x[..., list(net.outgoing.values()), :len(net.incoming)],
        transfer_rows={name: x[..., j, :] for name, j in net.observables.items()},
        condition=math.nan,
    )


def check_commutators(net: LinearNetwork, res: ScatteringResult) -> float:
    """Max |S diag(signs) S^dag - 1| entry relative to the rows it involves.

    signs is -1 on the ports in net.conjugated, +1 elsewhere.  Raw S
    entries grow without bound on extreme parameter draws, so entry
    (i, j) is divided by the norms of rows i and j, each floored at 1
    (unitary networks keep the absolute figure).  Over a stack, the
    worst point counts.

    Only passive lines have S rows: the ideal amplifier pins its input
    with no back-reaction and is exact for symmetrized spectra only
    (Caves, PRD 26, 1817 (1982)), so its out fields, and that of the
    line it drives, are not commutator-preserving observables.
    """
    signs = np.array([-1.0 if port in net.conjugated else 1.0 for port in net.incoming])
    s = res.s_matrix
    d = (s * signs) @ np.swapaxes(s.conj(), -1, -2) - np.eye(s.shape[-2])
    norms = np.maximum(1.0, np.linalg.norm(s, axis=-1))
    return float((np.abs(d) / (norms[..., :, None] * norms[..., None, :])).max())


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
    ({"V": "xi_m", "I_t1": "1j*kt*x_t", "r1_out": "gain"}, {"F_ext": 1.0, "m": "-c_mech"}),
    # Mechanical line out field.
    ({"m_out": 1.0, "V": "-c_mech_out"}, {"m": 1.0}),
    # Transducer three-port, Z_t = i x_t.
    ({"U_1": 1.0, "I_t1": "-1j*x_t"}, {}),
    ({"U_2": 1.0, "I_t2": "-1j*x_t", "V": "2*kt*x_t*wt/omega"}, {}),
    # Amplifier voltage noise pins the input node, per quadrature.
    ({"U_1": 1.0}, {"a1": "c_volt", "b1": "-c_volt"}),
    ({"U_2": 1.0}, {"a2": "c_volt", "b2": "-c_volt"}),
    # Current balance at the input node, per quadrature.
    ({"I_l1": 1.0, "I_f1": 1.0, "I_t1": 1.0}, {"a1": "c_curr", "b1": "c_curr"}),
    ({"I_l2": 1.0, "I_f2": 1.0, "I_t2": 1.0}, {"a2": "c_curr", "b2": "c_curr"}),
    # Feedback element, quadrature-coupled because Z_f = i |Z_f| is
    # frequency-odd: -i Z_f = |Z_f|.
    ({"U_1": 1.0, "U_r1": -1.0, "I_f2": "zf_mag"}, {}),
    ({"U_2": 1.0, "U_r2": -1.0, "I_f1": "-zf_mag"}, {}),
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

    Returns the matrix of constant entries and, per per-point entry,
    its (row, column, value name).
    """
    index = {name: j for j, name in enumerate(columns)}
    matrix = np.zeros((len(_SENSOR_RELATIONS), len(columns)), dtype=complex)
    entries = []
    for i, relation in enumerate(_SENSOR_RELATIONS):
        for name, coef in relation[side].items():
            if isinstance(coef, str):
                entries.append((i, index[name], coef))
            else:
                matrix[i, index[name]] = coef
    return matrix, tuple(entries)


_SENSOR_A = _template(0, _SENSOR_UNKNOWNS)
_SENSOR_B = _template(1, (*LINE_LABELS, "F_ext"))
_SENSOR_OUTGOING = {port: _SENSOR_UNKNOWNS.index(f"{port}_out") for port in ("m", "l1", "l2")}
_SENSOR_OBSERVABLES = {"velocity": _SENSOR_UNKNOWNS.index("V"),
                       "detected": _SENSOR_UNKNOWNS.index("r1_out")}


def _fill(template, values: dict, shape: tuple) -> np.ndarray:
    """Template matrices over shape, one per point, with the named entries set."""
    matrix, entries = template
    out = np.empty((*shape, *matrix.shape), dtype=complex)
    out[...] = matrix
    for i, j, name in entries:
        out[..., i, j] = values[name]
    return out


def build_sensor_network(p: InstrumentParams, gain: complex | np.ndarray | None,
                         omega: float | np.ndarray) -> LinearNetwork:
    """Raw element relations of the capacitive sensor at frequency Omega.

    gain is the servo loop gain G_s (None for the open-loop sensor).
    One node per electrical quadrature carries the transducer port, the
    loss line and the amplifier input; the charge amplifier's reactive
    feedback couples the quadratures.  A parameter grid (fields holding
    (N,) columns) and (N,) arrays of gains or frequencies give a stack of
    N systems with one leading axis.
    """
    w = _frequencies(omega)
    values = _sensor_values(p, gain, w)
    shape = np.broadcast(*values.values()).shape
    return LinearNetwork(a=_fill(_SENSOR_A, values, shape), b=_fill(_SENSOR_B, values, shape),
                         incoming=list(LINE_LABELS), outgoing=_SENSOR_OUTGOING,
                         omega=np.broadcast_to(w, shape)[()],
                         observables=_SENSOR_OBSERVABLES, conjugated=frozenset({"b1", "b2"}))


def _sensor_values(p: InstrumentParams, gain: complex | np.ndarray | None, w) -> dict:
    """The per-point entries of the sensor relations, floats or (N,) columns.

    Each is computed in real arithmetic with the operations, in order,
    of the complex products it stands for (Z_t = i x_t, Z_f = i |Z_f|),
    and then placed on the real or imaginary axis, so a grid point
    equals the single point bit for bit.
    """
    h_m, wt, kt, x_t, zf_mag = p.H_m, p.omega_t, p.kappa_t, p.x_t(w), p.zf_mag
    c_volt = np.sqrt(2.0 * HBAR * wt * p.R_a)              # amplifier voltage noise
    return {
        "xi_m": h_m + 1j * (-(p.M * w) + p.K / w),
        "1j*kt*x_t": 1j * (kt * x_t),
        "gain": 0.0 if gain is None else gain,
        "-c_mech": -np.sqrt(2.0 * HBAR * abs(w) * h_m),          # Langevin force
        "-c_mech_out": -np.sqrt(2.0 * h_m / (HBAR * abs(w))),    # velocity -> out field
        "-1j*x_t": 1j * -x_t,
        "2*kt*x_t*wt/omega": 2.0 * kt * x_t * wt / w,
        "c_volt": c_volt,
        "-c_volt": -c_volt,
        "c_curr": np.sqrt(2.0 * HBAR * wt / p.R_a),              # amplifier current noise
        "zf_mag": zf_mag,
        "-zf_mag": -zf_mag,
        "-R_l": -p.R_l,
        "c_loss": np.sqrt(2.0 * HBAR * wt * p.R_l),
        "-c_loss_out": -np.sqrt(2.0 / (HBAR * wt * p.R_l)),
        "-c_det_out": -np.sqrt(2.0 / (HBAR * wt * p.R_r)),
    }


def normalized_row(row: np.ndarray) -> np.ndarray:
    """Sensor transfer row over LINE_LABELS, normalized to unit F_ext response.

    The row runs over the sensor network's incoming fields, LINE_LABELS,
    then its one drive, F_ext.  A stack of rows is normalized row by row.
    """
    drive = row[..., len(LINE_LABELS), None]
    if (drive == 0).any():
        raise ZeroDivisionError("transfer row has no drive response; cannot normalize")
    return row[..., :len(LINE_LABELS)] / drive


def build_matched_junction(r_1: float, r_2: float, omega: float) -> LinearNetwork:
    """Two lines joined at a node; matched impedances swap the ports."""
    check_frequency(omega)
    c_1 = math.sqrt(2.0 * HBAR * abs(omega) * r_1)
    c_2 = math.sqrt(2.0 * HBAR * abs(omega) * r_2)
    # Unknowns U, I_1, I_2, p1_out, p2_out; incoming p1, p2.
    a = np.array([[1.0, -r_1, 0.0, 0.0, 0.0], [1.0, 0.0, -r_2, 0.0, 0.0],
                  [0.0, 1.0, 1.0, 0.0, 0.0], [-2.0 / c_1, 0.0, 0.0, 1.0, 0.0],
                  [-2.0 / c_2, 0.0, 0.0, 0.0, 1.0]], dtype=complex)
    b = np.array([[c_1, 0.0], [0.0, c_2], [0.0, 0.0], [-1.0, 0.0], [0.0, -1.0]], dtype=complex)
    return LinearNetwork(a=a, b=b, incoming=["p1", "p2"], outgoing={"p1": 3, "p2": 4},
                         omega=omega)


def build_open_line(r: float, omega: float) -> LinearNetwork:
    """A line terminated by an open circuit: total reflection."""
    check_frequency(omega)
    c = math.sqrt(2.0 * HBAR * abs(omega) * r)
    # Unknowns U, I, p_out; incoming p.
    a = np.array([[1.0, -r, 0.0], [0.0, 1.0, 0.0], [-2.0 / c, 0.0, 1.0]], dtype=complex)
    b = np.array([[c], [0.0], [-1.0]], dtype=complex)
    return LinearNetwork(a=a, b=b, incoming=["p"], outgoing={"p": 2}, omega=omega)
