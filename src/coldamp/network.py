"""Independent numerical oracle for the sensor's linear quantum network.

The raw element relations (resistive/mechanical line laws, the transducer
three-port, the charge-amplifier laws and optionally the feedback
force) are the entries of one complex linear system per point;
arrays of frequencies, gains or parameter sets give a stack of systems.  Each
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
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .constants import HBAR
from .errors import NetworkSolveError
from .noise import LINE_LABELS
from .params import InstrumentParams, Record, check_frequency
from .ops import numpy_ops


class LinearNetwork(Record):
    """Linear relations a x = b of one network, as their entries.

    a[i, j] multiplies unknown j and b[i, k] input k in relation i; a key
    left out is a zero, and the keys of a fix solve's order.  size is
    (n, m): n relations in n unknowns, m inputs (the incoming fields in
    order, then any external drives).  A value is a complex scalar, or an
    (N,) complex128 column over the points of a stack (one system per
    frequency, gain or parameter set; omega holds each point's frequency).
    outgoing maps each port with an out-field unknown to that unknown,
    observables name further unknowns whose transfer rows solve returns,
    and conjugated the incoming ports that enter conjugated (b1, b2).
    """

    a: dict[tuple[int, int], complex | np.ndarray]
    b: dict[tuple[int, int], complex | np.ndarray]
    size: tuple[int, int]
    incoming: list[str]
    outgoing: dict[str, int]              # port label -> out-field unknown
    omega: float | np.ndarray
    observables: dict[str, int] = MappingProxyType({})
    conjugated: frozenset[str] = frozenset()

    def __post_init__(self):
        n, m = self.size
        if not (set().union(*self.a) | {i for i, _ in self.b} <= set(range(n))
                and {k for _, k in self.b} <= set(range(m))):
            raise ValueError(f"system must be square: a must be {n} x {n} and b {n} x {m}")


class ScatteringResult(Record):
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
    """Substitution order of one set of entries; see _substitution_order."""

    steps: tuple[tuple[int, int, tuple[int, ...]], ...]  # (relation, unknown, other unknowns)
    home: dict[int, int]                                 # relation -> the unknown it gives
    block_cols: tuple[int, ...]                          # unknowns of the dense block
    block: tuple[tuple[int, int, int, int], ...]         # (row, column, relation, unknown)
    feed: tuple[tuple[int, int, int], ...]               # (row, relation, solved unknown)


# Substitution orders by system size and the keys of a.
_ORDERS: dict[tuple[int, frozenset], _Order] = {}


def _substitution_order(n: int, entries) -> _Order:
    """Substitution order of n relations in n unknowns with entries at (relation, unknown).

    Repeatedly takes the first relation with exactly one unknown not yet
    solved; that relation gives its unknown by one division.  The relations
    and unknowns left over form one dense block, a feedback loop fed by
    solved unknowns; its i-th relation's home is its i-th unknown.  Ordered
    so, the matrix is block lower triangular: the steps, then the block.
    """
    uses = [set() for _ in range(n)]
    for r, c in entries:
        uses[r].add(c)
    solved, steps, left = set(), [], list(range(n))
    while (r := next((r for r in left if len(uses[r] - solved) == 1), None)) is not None:
        (c,) = uses[r] - solved
        steps.append((r, c, tuple(sorted(uses[r] - {c}))))
        solved.add(c)
        left.remove(r)
    cols = sorted(set(range(n)) - solved)
    return _Order(
        steps=tuple(steps), home=dict(zip(left, cols)) | {r: c for r, c, _ in steps},
        block_cols=tuple(cols),
        block=tuple((i, j, r, c) for i, r in enumerate(left) for j, c in enumerate(cols)
                    if c in uses[r]),
        feed=tuple((i, r, k) for i, r in enumerate(left) for k in sorted(uses[r] & solved)),
    )


def _solve_error(net: LinearNetwork, failed: np.ndarray, what: str) -> NetworkSolveError:
    """The solve error naming the first failed point of a stack."""
    omega = float(np.ravel(net.omega)[np.argmax(np.ravel(failed))])
    return NetworkSolveError(f"{what} at omega = {omega:g} rad/s", omega=omega)


def solve(net: LinearNetwork) -> ScatteringResult:
    """Solve the raw network relations in substitution order.

    Returns the scattering rows of the ports that have an out-field
    variable and the raw transfer rows of the declared observables over
    incoming fields and drives.  A stack is solved in one call; a failure
    names the frequency of the first failing point.

    The order comes from the keys of a alone, never from their values:
    each relation that ties one unknown not yet solved gives that unknown
    by one division, summing its other terms elementwise in a fixed order,
    so a stacked point equals the point solved alone bit for bit.  The
    relations left over form one dense block, a feedback loop (6 x 6 for
    the closed-loop sensor; none in open loop), assembled densely and
    solved by LAPACK plus one refinement step.  The matrix is block
    triangular, so a zero pivot means it is singular at that point.
    """
    a, (n, m), points = net.a, net.size, np.shape(net.omega)
    last = (*range(2, 2 + len(points)), 0, 1)      # transposes the two leading axes last
    if (order := _ORDERS.get(key := (n, frozenset(a)))) is None:
        order = _ORDERS[key] = _substitution_order(n, a)
    zero = sum(a[r, c] == 0 for r, c, _ in order.steps) > 0     # per point, any zero pivot
    if np.any(zero):
        raise _solve_error(net, zero, "singular network matrix")
    x = np.zeros((n, m, *points), dtype=complex)    # per unknown, its row over the inputs
    x_last = x.transpose(last)                      # the same x as (*points, n, m)
    for (r, k), value in net.b.items():
        x[order.home[r], k] = value     # each relation's right side, in its unknown's row
    # An overflow or invalid operation leaves a non-finite x, reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        for r, c, others in order.steps:
            row = x[c]
            for k in others:
                row -= a[r, k] * x[k]
            row /= a[r, c]
        if cols := list(order.block_cols):
            block = np.zeros((len(cols), len(cols), *points), dtype=complex)
            for i, j, r, c in order.block:
                block[i, j] = a[r, c]
            rhs = x[cols]
            for i, r, k in order.feed:
                rhs[i] -= a[r, k] * x[k]
            block, rhs = block.transpose(last), rhs.transpose(last)
            try:
                y = np.linalg.solve(block, rhs)
                # The block is ill-conditioned through the scales of its
                # entries.  One refinement step with a float64 residual
                # (fixed-precision refinement: Skeel, Math. Comp. 35
                # (1980); Higham ch. 12) restores componentwise stability
                # and brings the forward error to rounding level.
                y = y + np.linalg.solve(block, rhs - block @ y)
            except np.linalg.LinAlgError as exc:
                # slogdet's sign is 0 exactly where LU meets a zero pivot.
                raise _solve_error(net, np.linalg.slogdet(block)[0] == 0,
                                   "singular network matrix") from exc
            x_last[..., cols, :] = y
    failed = ~np.isfinite(x).all(axis=(0, 1))
    if failed.any():
        raise _solve_error(net, failed, "non-finite network solution")

    return ScatteringResult(
        s_matrix=x[list(net.outgoing.values()), :len(net.incoming)].transpose(last),
        transfer_rows={name: x_last[..., j, :] for name, j in net.observables.items()},
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
# build_sensor_network; "-gain" is written only in closed loop.
_SENSOR_RELATIONS = (
    # Equation of motion; in closed loop the feedback force +G_s r1_out acts too.
    ({"V": "xi_m", "I_t1": "1j*kt*x_t", "r1_out": "-gain"}, {"F_ext": 1.0, "m": "-c_mech"}),
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


def _complex128(values: dict) -> dict:
    """values as complex scalars, or (N,) complex128 columns."""
    return {k: np.asarray(v, complex) if isinstance(v, np.ndarray) else complex(v)
            for k, v in values.items()}


def _sensor_entries(side: int, columns: tuple[str, ...]) -> tuple:
    """(relation, column, coefficient) of each entry on side 0 (a) or 1 (b) of _SENSOR_RELATIONS."""
    index = {name: j for j, name in enumerate(columns)}
    return tuple((i, index[name], coef if isinstance(coef, str) else complex(coef))
                 for i, relation in enumerate(_SENSOR_RELATIONS)
                 for name, coef in relation[side].items())


_SENSOR_A = _sensor_entries(0, _SENSOR_UNKNOWNS)
_SENSOR_B = _sensor_entries(1, (*LINE_LABELS, "F_ext"))
_SENSOR_OUTGOING = {port: _SENSOR_UNKNOWNS.index(f"{port}_out") for port in ("m", "l1", "l2")}
_SENSOR_OBSERVABLES = {"velocity": _SENSOR_UNKNOWNS.index("V"),
                       "detected": _SENSOR_UNKNOWNS.index("r1_out")}


def build_sensor_network(p: InstrumentParams, gain: complex | np.ndarray | None,
                         omega: float | np.ndarray) -> LinearNetwork:
    """Raw element relations of the capacitive sensor at frequency Omega.

    gain is the servo loop gain G_s (None: the open loop, with no feedback force).
    One node per electrical quadrature carries the transducer port, the
    loss line and the amplifier input; the charge amplifier's reactive
    feedback couples the quadratures.  A parameter grid (fields holding
    (N,) columns) and (N,) arrays of gains or frequencies give a stack of
    N systems: each per-point entry is one (N,) column, and an entry
    that names the same value as another is the same column.
    """
    w = numpy_ops().frequencies(omega)
    values = _complex128(_sensor_values(p, gain, w))
    shape = np.broadcast(*values.values()).shape
    # values.get(coef, coef): the named per-point value, or the constant itself.
    a, b = ({(i, j): values.get(coef, coef) for i, j, coef in side
             if not isinstance(coef, str) or coef in values}
            for side in (_SENSOR_A, _SENSOR_B))
    return LinearNetwork(a=a, b=b, size=(len(_SENSOR_UNKNOWNS), len(LINE_LABELS) + 1),
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
    return ({} if gain is None else {"-gain": -gain}) | {
        "xi_m": h_m + 1j * (-(p.M * w) + p.K / w),
        "1j*kt*x_t": 1j * (kt * x_t),
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


def normalized_row(net: LinearNetwork, row: np.ndarray) -> np.ndarray:
    """Sensor transfer row over LINE_LABELS, normalized to unit F_ext response.

    The row of net runs over the sensor network's incoming fields,
    LINE_LABELS, then its one drive, F_ext.  A stack of rows is
    normalized row by row; a zero drive response is a NetworkSolveError
    naming the first such point.
    """
    drive = row[..., len(LINE_LABELS)]
    if (zero := drive == 0).any():
        raise _solve_error(net, zero, "transfer row has no drive response")
    return row[..., :len(LINE_LABELS)] / drive[..., None]


def build_matched_junction(r_1: float, r_2: float | np.ndarray, omega: float) -> LinearNetwork:
    """Two lines joined at a node; matched impedances swap the ports.  (N,) r_2: a stack."""
    check_frequency(omega)
    c_1 = math.sqrt(2.0 * HBAR * abs(omega) * r_1)
    c_2 = np.sqrt(2.0 * HBAR * abs(omega) * r_2)
    # Unknowns U, I_1, I_2, p1_out, p2_out; incoming p1, p2.
    a = {(0, 0): 1.0, (0, 1): -r_1, (1, 0): 1.0, (1, 2): -r_2, (2, 1): 1.0, (2, 2): 1.0,
         (3, 0): -2.0 / c_1, (3, 3): 1.0, (4, 0): -2.0 / c_2, (4, 4): 1.0}
    b = {(0, 0): c_1, (1, 1): c_2, (3, 0): -1.0, (4, 1): -1.0}
    return LinearNetwork(a=_complex128(a), b=_complex128(b), size=(5, 2),
                         incoming=["p1", "p2"], outgoing={"p1": 3, "p2": 4},
                         omega=np.broadcast_to(omega, np.shape(r_2))[()])


def build_open_line(r: float, omega: float) -> LinearNetwork:
    """A line terminated by an open circuit: total reflection."""
    check_frequency(omega)
    c = math.sqrt(2.0 * HBAR * abs(omega) * r)
    # Unknowns U, I, p_out; incoming p.
    a = {(0, 0): 1.0, (0, 1): -r, (1, 1): 1.0, (2, 0): -2.0 / c, (2, 2): 1.0}
    b = {(0, 0): c, (2, 0): -1.0}
    return LinearNetwork(a=_complex128(a), b=_complex128(b), size=(3, 1),
                         incoming=["p"], outgoing={"p": 2}, omega=omega)
