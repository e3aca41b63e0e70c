"""Parameter-block evaluation: the 2-input delay kernel.

A **sample block** is a structured NumPy array with one record per
parameter set (:data:`BLOCK_DTYPE`).  The kernels below evaluate a
whole block against a per-row Δ matrix in one NumPy pass.
Monte-Carlo runs blocks of thousands of rows; the vectorized engine
runs each scalar parameter set as a 1-row block.  This module is
therefore the only array implementation of the paper's 2-input
closed forms.

Each kernel has two steps:

* the **row-constants step** (:func:`_falling_rows`,
  :func:`_rising_rows`) computes everything that does not depend on
  Δ.  That is the mode constants α, β, λ₁, λ₂ of
  :func:`repro.core.modes.mode_10_constants` /
  :func:`~repro.core.modes.mode_00_constants`, the first-segment
  solutions and their crossing times, the (1,1) decay rate and the
  settle cutoff, one value per row;
* the **Δ step** (:func:`_falling_delays`, :func:`_rising_delays`)
  broadcasts those ``(N, 1)`` row columns against the ``(N, M)`` Δ
  grid.

The vectorized engine memoises the row-constants step per parameter
set (and ``vn_init``), so a sweep of one gate pays only for the Δ
step; a Monte-Carlo block computes both steps per call.  The only
iterative piece, the two-exponential threshold crossing
(:func:`repro.core.multi_input._crossing`, shared with the two-pole
wire reduction), runs through the same safeguarded lockstep Newton as
the n-input kernel, with each row's eigenvalues broadcast over its Δ
points.

The branch structure (sign of Δ, the ``settle_time`` cutoff, early
first-segment crossings) mirrors the scalar
:class:`~repro.core.hybrid_model.HybridNorModel`, so results match
the reference engine to ≤ 1e-12 s (asserted by the engine parity
suite).

Entry points
------------
Engines expose the block kernels as ``delays_falling_block`` /
``delays_rising_block`` methods; :func:`block_delays` is the
dispatcher (with a per-sample loop fallback for backends without
native block support).  :mod:`repro.stats.montecarlo` is the primary
consumer.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from ..core.hybrid_model import _SETTLE_FACTOR
from ..core.multi_input import _crossing, _exp2
from ..core.parameters import NorGateParameters
from ..errors import NoCrossingError, ParameterError

__all__ = [
    "BLOCK_DTYPE",
    "PARAM_FIELDS",
    "block_delays",
    "block_delays_loop",
    "block_from_matrix",
    "block_from_parameters",
    "falling_delays_block",
    "field_matrix",
    "parameters_at",
    "rising_delays_block",
    "validate_block",
]

#: Field order of a sample block — the constructor order of
#: :class:`~repro.core.parameters.NorGateParameters`.
PARAM_FIELDS = ("r1", "r2", "r3", "r4", "cn", "co", "vdd",
                "delta_min")

#: Structured dtype of a sample block: one float64 per parameter.
BLOCK_DTYPE = np.dtype([(name, np.float64) for name in PARAM_FIELDS])

#: Exclusive lower bound of every field of a valid record: the
#: electrical values are positive, and ``delta_min >= 0`` is
#: ``delta_min >`` the largest negative float (``-0.0`` included).
_FIELD_FLOOR = np.array([0.0] * (len(PARAM_FIELDS) - 1)
                        + [-np.nextafter(0.0, 1.0)])

# ----------------------------------------------------------------------
# block construction / validation
# ----------------------------------------------------------------------

def block_from_parameters(params) -> np.ndarray:
    """Pack parameter sets into a sample block.

    Parameters
    ----------
    params : NorGateParameters or sequence of NorGateParameters
        The parameter sets, one record each.

    Returns
    -------
    numpy.ndarray
        Structured array of dtype :data:`BLOCK_DTYPE`, shape
        ``(len(params),)``.
    """
    if isinstance(params, NorGateParameters):
        params = [params]
    block = np.empty(len(params), dtype=BLOCK_DTYPE)
    for i, p in enumerate(params):
        block[i] = tuple(getattr(p, name) for name in PARAM_FIELDS)
    return block


def block_from_matrix(matrix) -> np.ndarray:
    """Rebuild a sample block from its plain-float field matrix.

    The inverse of viewing a block as an ``(N, len(PARAM_FIELDS))``
    float array — the shape the parallel engine ships through shared
    memory.

    Parameters
    ----------
    matrix : array_like of float
        Field values, shape ``(N, len(PARAM_FIELDS))``, columns in
        :data:`PARAM_FIELDS` order.

    Returns
    -------
    numpy.ndarray
        Structured array of dtype :data:`BLOCK_DTYPE`, shape
        ``(N,)``.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != len(PARAM_FIELDS):
        raise ParameterError(
            f"field matrix must have {len(PARAM_FIELDS)} columns, "
            f"got shape {matrix.shape}")
    return matrix.view(BLOCK_DTYPE).reshape(matrix.shape[0])


def field_matrix(block: np.ndarray) -> np.ndarray:
    """View a sample block as a plain ``(N, len(PARAM_FIELDS))`` float
    matrix.

    The inverse of :func:`block_from_matrix` — the homogeneous shape
    the parallel engine stages through shared memory.  Zero-copy when
    the block is contiguous.

    Parameters
    ----------
    block : numpy.ndarray
        Sample block of dtype :data:`BLOCK_DTYPE`, shape ``(N,)``.

    Returns
    -------
    numpy.ndarray
        Float64 matrix, columns in :data:`PARAM_FIELDS` order.
    """
    block = np.ascontiguousarray(block)
    return block.view(np.float64).reshape(block.shape[0],
                                          len(PARAM_FIELDS))


def parameters_at(block: np.ndarray, index: int) -> NorGateParameters:
    """Materialize one block record as a parameter object.

    Parameters
    ----------
    block : numpy.ndarray
        Sample block of dtype :data:`BLOCK_DTYPE`.
    index : int
        Record index.

    Returns
    -------
    NorGateParameters
        The (validated) scalar parameter set.
    """
    row = block[index]
    return NorGateParameters(
        **{name: float(row[name]) for name in PARAM_FIELDS})


def validate_block(block) -> np.ndarray:
    """Check a sample block like the scalar parameter constructor.

    Parameters
    ----------
    block : numpy.ndarray
        Structured array of dtype :data:`BLOCK_DTYPE` (any 1-D
        length).

    Returns
    -------
    numpy.ndarray
        The validated block (unchanged).

    Raises
    ------
    ParameterError
        On a wrong dtype, or any record a
        :class:`~repro.core.parameters.NorGateParameters` constructor
        would reject (non-positive / non-finite electrical values,
        negative ``delta_min``).
    """
    block = np.asarray(block)
    if block.dtype != BLOCK_DTYPE:
        raise ParameterError(
            f"sample block must have dtype {BLOCK_DTYPE}, got "
            f"{block.dtype}")
    if block.ndim != 1:
        raise ParameterError("sample block must be 1-D")
    values = field_matrix(block)
    valid = ((values > _FIELD_FLOOR) & (values < math.inf)).all(axis=0)
    if not valid.all():
        name = PARAM_FIELDS[int(np.argmin(valid))]
        if name == "delta_min":
            raise ParameterError(
                "delta_min must be non-negative and finite in every "
                "block record")
        raise ParameterError(
            f"{name} must be positive and finite in every block "
            "record")
    return block


def _as_deltas(deltas) -> np.ndarray:
    """*deltas* as a float array, NaN rejected."""
    d = np.asarray(deltas, dtype=float)
    if np.isnan(d).any():
        raise ParameterError("input separations must not be NaN")
    return d


def _prepare_deltas(block: np.ndarray, deltas
                    ) -> tuple[np.ndarray, bool]:
    """Normalize *deltas* to ``(N, M)`` against an ``(N,)`` block."""
    d = _as_deltas(deltas)
    squeeze = d.ndim == 1
    if squeeze:
        d = d[:, None]
    if d.ndim != 2 or d.shape[0] != block.shape[0]:
        raise ParameterError(
            f"deltas must have shape (N,) or (N, M) with N = "
            f"{block.shape[0]} samples, got {np.shape(deltas)}")
    return d, squeeze


# ----------------------------------------------------------------------
# per-row closed forms (arrays over the sample axis)
# ----------------------------------------------------------------------

def _mode10_constants(r2, r3, cn, co):
    """Mode (1,0) constants per row (paper eqs. (1)–(3))."""
    denom = 2.0 * co * cn * r2 * r3
    alpha = (co * r3 - cn * (r2 + r3)) / denom
    radicand = ((co * r3 + cn * (r2 + r3)) ** 2
                - 4.0 * co * cn * r2 * r3)
    beta = np.sqrt(radicand) / denom
    gamma = -(co * r3 + cn * (r2 + r3)) / denom
    return alpha, beta, gamma + beta, gamma - beta


def _mode00_constants(r1, r2, cn, co):
    """Mode (0,0) constants per row (paper eqs. (4)–(7))."""
    denom = 2.0 * co * cn * r1 * r2
    alpha = (co * (r1 + r2) - cn * r1) / denom
    radicand = ((cn * r1 + co * (r1 + r2)) ** 2
                - 4.0 * co * cn * r1 * r2)
    beta = np.sqrt(radicand) / denom
    gamma = -(cn * r1 + co * (r1 + r2)) / denom
    return alpha, beta, gamma + beta, gamma - beta


def _settle(block: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.core.hybrid_model.settle_time`."""
    r1, r2, r3, r4 = (block["r1"], block["r2"], block["r3"],
                      block["r4"])
    cn, co = block["cn"], block["co"]
    taus = (co * r3 * r4 / (r3 + r4), co * r3, co * r4, cn * r1,
            cn * r2, co * r2, co * r1)
    return _SETTLE_FACTOR * functools.reduce(np.maximum, taus)


def _columns(*rows: np.ndarray) -> list[np.ndarray]:
    """Per-row values as ``(N, 1)`` columns for the Δ step."""
    return [row[:, None] for row in rows]


# ----------------------------------------------------------------------
# falling transition (inputs rise, output VDD → GND)
# ----------------------------------------------------------------------

class _FallingRows(NamedTuple):
    """Δ-independent falling constants, one ``(N, 1)`` column each."""

    #: mode (1,0) output from (VDD, VDD): ``k1·e^{l1 t} + k2·e^{l2 t}``.
    k1: np.ndarray
    k2: np.ndarray
    l1: np.ndarray
    l2: np.ndarray
    #: output crossing time within pure mode (1,0), seconds.
    t10: np.ndarray
    #: output crossing time within pure mode (0,1): ``τ_R4 · ln 2``.
    t01: np.ndarray
    #: mode (1,1) output decay rate ``−(1/τ_R3 + 1/τ_R4)``.
    rate11: np.ndarray
    tau_r4: np.ndarray
    vdd: np.ndarray
    vth: np.ndarray
    settle: np.ndarray
    delta_min: np.ndarray


def _falling_rows(block: np.ndarray) -> _FallingRows:
    """Row-constants step of the falling kernel (validated block)."""
    r2, r3, r4 = block["r2"], block["r3"], block["r4"]
    cn, co, vdd = block["cn"], block["co"], block["vdd"]
    vth = 0.5 * vdd
    alpha, beta, l1, l2 = _mode10_constants(r2, r3, cn, co)

    # vo of mode (1,0) entered at (VDD, VDD):  c1 + c2 = VDD·CN·R2,
    # vo(t) = c1 (α+β) e^{λ1 t} + c2 (α−β) e^{λ2 t}  from VDD.
    total = vdd * cn * r2
    c1 = (vdd - total * (alpha - beta)) / (2.0 * beta)
    k1 = c1 * (alpha + beta)
    k2 = (total - c1) * (alpha - beta)

    # First downward Vth crossing inside pure mode (1,0): vo starts
    # at VDD with negative slope and the level sits above the late
    # tail, so the root is unique.
    t10 = _crossing(k1, k2, l1, l2, vth, np.zeros_like(vth),
                    np.full_like(vth, math.inf), upward=False)

    tau_r4 = co * r4
    return _FallingRows(*_columns(
        k1, k2, l1, l2, t10, tau_r4 * math.log(2.0),
        -(1.0 / (co * r3) + 1.0 / tau_r4), tau_r4, vdd, vth,
        _settle(block), block["delta_min"]))


def _falling_delays(rows: _FallingRows, d: np.ndarray) -> np.ndarray:
    """Δ step of the falling kernel: delays of an ``(N, M)`` grid."""
    pos = d >= 0.0
    mag = np.minimum(np.abs(d), rows.settle)
    # (1,0) then (1,1) for Δ ≥ 0; (0,1) then (1,1) for Δ < 0.  The
    # output crosses within the first mode unless the second input
    # switches before that crossing.
    crossing = np.where(pos, rows.t10, rows.t01)
    late = mag < crossing
    if late.any():
        row = np.nonzero(late)[0]
        m, p = mag[late], pos[late]
        k1, k2, l1, l2, vdd, tau_r4, vth, rate11 = (
            column[row, 0] for column in (
                rows.k1, rows.k2, rows.l1, rows.l2, rows.vdd,
                rows.tau_r4, rows.vth, rows.rate11))
        vo_d = np.where(p, _exp2(k1, k2, l1, l2, m),
                        vdd * np.exp(-m / tau_r4))
        crossing[late] = m + np.log(vth / vo_d) / rate11
    return crossing + rows.delta_min


def falling_delays_block(block, deltas) -> np.ndarray:
    """Falling MIS delays for a whole sample block at once.

    Sample ``i`` is evaluated at Δ row ``deltas[i]``, every segment
    constant computed as an array over the sample axis.

    Parameters
    ----------
    block : numpy.ndarray
        Sample block of dtype :data:`BLOCK_DTYPE`, shape ``(N,)``
        (see :func:`validate_block`).
    deltas : array_like of float
        Input separations in seconds, shape ``(N,)`` or ``(N, M)``;
        ``±inf`` allowed, NaN rejected.

    Returns
    -------
    numpy.ndarray
        Delays in seconds (``δ_min`` included), same shape as
        *deltas*; matches the scalar reference to ≤ 1e-12 s.
    """
    block = validate_block(block)
    d, squeeze = _prepare_deltas(block, deltas)
    out = _falling_delays(_falling_rows(block), d)
    return out[:, 0] if squeeze else out


# ----------------------------------------------------------------------
# rising transition (inputs fall, output GND → VDD)
# ----------------------------------------------------------------------

class _RisingRows(NamedTuple):
    """Δ-independent rising constants, one ``(N, 1)`` column each."""

    #: Mode-(1,1) internal-node voltage ``X`` (volts), shared.
    x: float
    #: mode (0,1) internal-node rate ``−1/(C_N·R1)``.
    rate01: np.ndarray
    #: mode (1,0) from (X, 0): ``vn = kn1·e^{l1 t} + kn2·e^{l2 t}``,
    #: ``vo`` likewise with ``ko1, ko2``.
    kn1: np.ndarray
    kn2: np.ndarray
    ko1: np.ndarray
    ko2: np.ndarray
    l1: np.ndarray
    l2: np.ndarray
    #: upward output crossing within pure mode (1,0); ``inf`` where
    #: charge sharing never lifts the output to Vth.
    t_up: np.ndarray
    #: mode (0,0) entered at ``(vn0, vo0)``: with ``u = vo0 − VDD``
    #: and ``v = vn0 − VDD`` the output is ``VDD + k1·e^{m1 t} +
    #: k2·e^{m2 t}``, ``k1 = p1 (u − q1 v)``, ``k2 = p2 (q2 v − u)``.
    p1: np.ndarray
    p2: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    vdd: np.ndarray
    vth: np.ndarray
    settle: np.ndarray
    delta_min: np.ndarray


def _rising_rows(block: np.ndarray, vn_init) -> _RisingRows:
    """Row-constants step of the rising kernel (validated block).

    Raises
    ------
    ParameterError
        If *vn_init* is not a voltage in ``[0, VDD]`` of every row.
    """
    r1, r2, r3 = block["r1"], block["r2"], block["r3"]
    cn, co, vdd = block["cn"], block["co"], block["vdd"]
    x = float(vn_init)
    if not (x >= 0.0 and (x <= vdd).all()):
        raise ParameterError(
            f"vn_init must be a voltage in [0, VDD], got {x!r} V")
    vth = 0.5 * vdd

    # Mode (1,0) entered at (X, 0) — B fell first.  Charge sharing
    # can lift the output, possibly across Vth before A falls.
    alpha, beta, l1, l2 = _mode10_constants(r2, r3, cn, co)
    total = x * cn * r2
    c1 = -total * (alpha - beta) / (2.0 * beta)
    c2 = total - c1
    kn1, kn2 = c1 / (cn * r2), c2 / (cn * r2)
    ko1, ko2 = c1 * (alpha + beta), c2 * (alpha - beta)

    # First *upward* Vth crossing of vo10, where one exists: vo10
    # starts at 0, peaks at its single stationary point, then decays
    # — the crossing exists iff the peak tops Vth.
    t_up = np.full(block.shape[0], math.inf)
    if x > 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            ts = np.log(-(ko2 * l2) / (ko1 * l1)) / (l1 - l2)
        has_peak = np.isfinite(ts) & (ts > 0.0)
        peak = _exp2(ko1, ko2, l1, l2, np.where(has_peak, ts, 0.0))
        sel = has_peak & (peak > vth)
        if sel.any():
            t_up[sel] = _crossing(ko1[sel], ko2[sel], l1[sel], l2[sel],
                                  vth[sel], np.zeros_like(ts[sel]),
                                  ts[sel], upward=True)

    # Final mode (0,0): the linear map from the entry state to the
    # exponential coefficients (eigenvector component 1/(C_N·R2)).
    a00, b00, m1, m2 = _mode00_constants(r1, r2, cn, co)
    return _RisingRows(x, *_columns(
        -1.0 / (cn * r1), kn1, kn2, ko1, ko2, l1, l2, t_up,
        (a00 + b00) / (2.0 * b00), (a00 - b00) / (2.0 * b00),
        (a00 - b00) * cn * r2, (a00 + b00) * cn * r2, m1, m2, vdd, vth,
        _settle(block), block["delta_min"]))


def _crossing_00(rows: _RisingRows, vn0, vo0) -> np.ndarray:
    """First upward Vth crossing of mode (0,0) entered at
    ``(vn0, vo0)``, on an ``(N, M)`` grid.

    Every element must start below the threshold (guaranteed by the
    callers: the output either never left GND or was handed over
    before its first upward crossing).
    """
    if (vo0 > rows.vth).any():
        raise NoCrossingError(
            "mode (0,0) entered above threshold; output never "
            "crosses Vth upwards")
    u = vo0 - rows.vdd
    v = vn0 - rows.vdd
    k1 = rows.p1 * (u - rows.q1 * v)
    k2 = rows.p2 * (rows.q2 * v - u)
    level = rows.vth - rows.vdd  # < 0: the output settles at VDD

    # At most one stationary point splits each element into monotone
    # pieces: the crossing lies in [0, ts] if f(ts) >= level, else in
    # [ts, inf); without a stationary point in [0, inf).
    m1, m2 = rows.m1, rows.m2
    with np.errstate(divide="ignore", invalid="ignore"):
        ts = np.log(-(k2 * m2) / (k1 * m1)) / (m1 - m2)
    has_ts = np.isfinite(ts) & (ts > 0.0)
    lo = np.zeros_like(k1)
    hi = np.full_like(k1, math.inf)
    if has_ts.any():
        f_ts = _exp2(k1, k2, m1, m2, np.where(has_ts, ts, 0.0))
        first_piece = has_ts & (f_ts >= level)
        second_piece = has_ts & ~first_piece
        hi[first_piece] = ts[first_piece]
        lo[second_piece] = ts[second_piece]
    return _crossing(k1, k2, m1, m2, level, lo, hi, upward=True)


def _rising_delays(rows: _RisingRows, d: np.ndarray) -> np.ndarray:
    """Δ step of the rising kernel: delays of an ``(N, M)`` grid."""
    pos = d >= 0.0
    mag = np.minimum(np.abs(d), rows.settle)
    # Δ ≥ 0: (0,1) from (X, 0) — the output pins at GND, only V_N
    # moves.  Δ < 0: (1,0) from (X, 0) — both nodes move.
    e1 = np.exp(rows.l1 * mag)
    e2 = np.exp(rows.l2 * mag)
    vn0 = np.where(
        pos, rows.vdd + (rows.x - rows.vdd) * np.exp(rows.rate01 * mag),
        rows.kn1 * e1 + rows.kn2 * e2)
    vo0 = np.where(pos, 0.0, rows.ko1 * e1 + rows.ko2 * e2)
    # The rising delay is referenced to the *later* input, so a final-
    # segment crossing equals the (0,0)-local crossing time; only an
    # early upward crossing inside (1,0) gives a Δ-dependent offset.
    # Early lanes enter (0,0) from a dummy output at GND, which keeps
    # the crossing well-posed; their (0,0) result is discarded.
    early = ~pos & (mag >= rows.t_up)
    delay = _crossing_00(rows, vn0, np.where(early, 0.0, vo0))
    return np.where(early, rows.t_up - mag, delay) + rows.delta_min


def rising_delays_block(block, deltas,
                        vn_init: float = 0.0) -> np.ndarray:
    """Rising MIS delays for a whole sample block at once.

    Includes the early charge-sharing crossing of the intermediate
    (1,0) mode for ``vn_init > 0``.

    Parameters
    ----------
    block : numpy.ndarray
        Sample block of dtype :data:`BLOCK_DTYPE`, shape ``(N,)``.
    deltas : array_like of float
        Input separations in seconds, shape ``(N,)`` or ``(N, M)``;
        ``±inf`` allowed, NaN rejected.
    vn_init : float, optional
        Mode-(1,1) internal-node voltage ``X`` in volts, shared by
        the block, within ``[0, VDD]`` of every row (default 0.0,
        the GND worst case).

    Returns
    -------
    numpy.ndarray
        Delays in seconds (``δ_min`` included), same shape as
        *deltas*; matches the scalar reference to ≤ 1e-12 s.

    Raises
    ------
    ParameterError
        On an invalid block, NaN separations, or a *vn_init* that is
        not a voltage in ``[0, VDD]``.
    """
    block = validate_block(block)
    d, squeeze = _prepare_deltas(block, deltas)
    out = _rising_delays(_rising_rows(block, vn_init), d)
    return out[:, 0] if squeeze else out


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------

def block_delays_loop(engine, direction: str, block, deltas,
                      vn_init: float = 0.0) -> np.ndarray:
    """Per-sample reference loop over an engine's scalar entry points.

    The ground-truth (and benchmark-baseline) evaluation of a sample
    block: one ordinary ``delays_falling`` / ``delays_rising`` call
    per record.  Backends without native block kernels (the scalar
    ``reference`` engine) serve their block entry points with this.

    Parameters
    ----------
    engine : DelayEngine
        Backend whose per-parameter-set entry points run the loop.
    direction : str
        ``"falling"`` or ``"rising"`` (the output transition).
    block : numpy.ndarray
        Sample block of dtype :data:`BLOCK_DTYPE`, shape ``(N,)``.
    deltas : array_like of float
        Input separations in seconds, shape ``(N,)`` or ``(N, M)``.
    vn_init : float, optional
        Rising-direction internal-node voltage in volts.

    Returns
    -------
    numpy.ndarray
        Delays in seconds, same shape as *deltas*.
    """
    from .base import delays_for_direction

    block = validate_block(block)
    d, squeeze = _prepare_deltas(block, deltas)
    out = np.empty_like(d)
    for i in range(block.shape[0]):
        out[i] = delays_for_direction(engine, direction,
                                      parameters_at(block, i), d[i],
                                      vn_init)
    return out[:, 0] if squeeze else out


def block_delays(engine, direction: str, block, deltas,
                 vn_init: float = 0.0) -> np.ndarray:
    """Dispatch a sample-block evaluation by direction.

    The block twin of
    :func:`repro.engine.base.delays_for_direction`: resolves the
    direction to the engine's ``delays_falling_block`` /
    ``delays_rising_block`` entry point, falling back to the
    per-sample loop for backends that predate the block protocol.

    Parameters
    ----------
    engine : DelayEngine
        Backend instance the block runs on.
    direction : str
        ``"falling"`` or ``"rising"`` (the output transition).
    block : numpy.ndarray
        Sample block of dtype :data:`BLOCK_DTYPE`, shape ``(N,)``.
    deltas : array_like of float
        Input separations in seconds, shape ``(N,)`` or ``(N, M)``.
    vn_init : float, optional
        Rising-direction internal-node voltage in volts (default
        0.0).

    Returns
    -------
    numpy.ndarray
        Delays in seconds, same shape as *deltas*.

    Raises
    ------
    ValueError
        If *direction* is neither ``"falling"`` nor ``"rising"``.
    """
    if direction not in ("falling", "rising"):
        raise ValueError(f"direction must be 'falling' or 'rising', "
                         f"got {direction!r}")
    if direction == "falling":
        method = getattr(engine, "delays_falling_block", None)
        if method is None:
            return block_delays_loop(engine, direction, block,
                                     deltas)
        return method(block, deltas)
    method = getattr(engine, "delays_rising_block", None)
    if method is None:
        return block_delays_loop(engine, direction, block, deltas,
                                 vn_init)
    return method(block, deltas, vn_init)
