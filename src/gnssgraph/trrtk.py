"""Time-relative carrier-phase baseline estimation.

Forms time-differenced, then between-satellite double-differenced (DD)
carrier phase and pseudorange between a past and a current epoch of the
same receiver and solves the past-to-current baseline by weighted least
squares. Every DD integer ambiguity is held at zero, as the slip screen
makes it by construction (the time-differenced carrier phase model of
van Graas & Soloviev 2004 and Freda et al. 2015); a chi-squared test of
the residuals and the formal baseline precision gate the result.

Receiver clock terms cancel in the between-satellite difference and
satellite clock biases cancel in the time difference, so only clock
drift over the (bounded) window remains as an unmodeled error.

`epoch_corrections` scatters a located `EpochGeometry` onto one
(epoch, satellite) grid, `SessionArrays`, and `solve_pairs` solves a
lattice of its epoch pairs in blocks, on arrays indexed by (pair,
session satellite): each DD covariance block D + r 11^T is weighted in
closed form and the Gauss-Newton steps are stacked 6x6 solves, each
pass on only the pairs that have not converged. No sum or product spans
two pairs, so a pair gets the same bits in any block and in any pass;
its GnssError is its result and never stops the block.
`estimate_baseline`, `detect_cycle_slips` and `form_double_differences`
are views of the kernel on one pair of a session.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

# not used here: bench/spans.py traces LAMBDA under this module's name
from .ambiguity import lambda_resolve  # noqa: F401
from .coords import unchecked_lines_of_sight
from .errors import (DegenerateGeometry, GnssError, InsufficientSatellites,
                     SingularGeometry, WindowExceeded)
from .geometry import EpochGeometry
from .types import SatelliteId

# candidate loop-closure time offsets [s]; medium-range edges matter most,
# full O(n^2) pairing is redundant
TR_PAIR_LATTICE = (5.0, 10.0, 20.0, 30.0, 45.0, 60.0, 80.0, 100.0)

# acceptance gates of a loop closure: the overall-model test must not
# reject the zero-integer model at this level, and the baseline's formal
# RMS error norm, sqrt(trace), must hold 3 cm at twice its value
INTEGRITY_P_MIN = 1e-3
PRECISION_MAX_M = 0.015

# pairs solved together: a block's arrays take a few MB however long the
# session is; 512-pair blocks solved the benchmark square about 1% faster
# and took 14% more peak memory (90.7 MB against 79.3 MB)
BLOCK_PAIRS = 128


class BaselineStatus(Enum):
    FIXED = "Fixed"
    REJECTED = "Rejected"


@dataclass(slots=True)
class TrRtkConfig:
    max_time_difference: float = 100.0  # [s]
    phase_sigma: float = 0.003          # [m] zenith, per single measurement
    code_sigma: float = 0.5             # [m] zenith, per single measurement
    elevation_mask: float = np.radians(15.0)
    position_prior_sigma: float = 3.0   # anchor-position error prior [m]


@dataclass(frozen=True)
class TrRtkResult:
    baseline: np.ndarray               # past -> current [m ECEF]
    covariance: np.ndarray             # 3x3 [m^2]
    status: BaselineStatus
    p_value: float                     # of the overall-model test
    time_difference: float             # [s]
    dd_ambiguities: tuple


@dataclass(frozen=True)
class SessionArrays:
    """A session's satellites on one (epoch, satellite) grid: row e is
    epoch e, column k is `sats[k]` in `SatelliteId.sort_key` order, so
    each constellation's columns are one slice of `spans`. A satellite an
    epoch does not observe with a known state has lock count -1; outside
    `usable` (its corrections) the arrays hold harmless fillers."""

    times: tuple                       # GpsTime per epoch
    sats: tuple
    spans: tuple                       # (start, stop) per constellation
    lock: np.ndarray                   # (n, S) lock counts
    phase: np.ndarray                  # (n, S) [cycles]
    wavelength: np.ndarray             # (n, S) [m]
    usable: np.ndarray                 # (n, S) bool
    sat_position: np.ndarray           # (n, S, 3) [m ECEF]
    elevation: np.ndarray              # (n, S) [rad]
    iono: np.ndarray                   # (n, S) [m]
    tropo: np.ndarray
    code: np.ndarray
    receiver: np.ndarray               # (n, 3) [m ECEF]


def epoch_corrections(located: EpochGeometry,
                      config: TrRtkConfig | None = None) -> SessionArrays:
    """The rows of `located` scattered onto the session grid. Lock count,
    phase and wavelength come from every row; the corrections (satellite
    position, elevation, modeled iono and tropo delay, and pseudorange
    with the satellite clock and modeled atmosphere removed) only from
    the rows a double difference can use: above the elevation mask and
    within the atmosphere models, as `located` has them at its receiver
    positions. The earliest epoch's delay-model error is raised."""
    config = config or TrRtkConfig()
    # a satellite the troposphere model rejects (ElevationTooLow) is left out
    rows = located.above(config.elevation_mask) & ~np.isnan(located.tropo)
    failed = located.failures(rows, (located.require_delays,))
    if failed:
        raise failed[min(failed)]
    _, first, column = np.unique(located.sats, return_index=True,
                                 return_inverse=True)
    starts = np.flatnonzero(np.diff(located.slot[first], prepend=-1))
    stops = np.append(starts[1:], len(first))
    shape = (len(located.times), len(first))
    every = (located.epoch, column)
    used = (located.epoch[rows], column[rows])

    def grid(cells, values, fill=0.0):
        out = np.full(shape + values.shape[1:], fill, values.dtype)
        out[cells] = values
        return out

    usable = np.zeros(shape, bool)
    usable[used] = True
    # a zenith satellite at the earth's center where no corrections are
    return SessionArrays(
        located.times,
        tuple(map(SatelliteId.from_key, located.sats[first].tolist())),
        tuple(zip(starts.tolist(), stops.tolist())),
        grid(every, located.lock, -1), grid(every, located.phase),
        grid(every, located.wavelength), usable,
        grid(used, located.sat_position[rows]),
        grid(used, located.elevation[rows], np.pi / 2),
        grid(used, located.iono[rows]), grid(used, located.tropo[rows]),
        grid(used, located.corrected_code[rows]), located.position)


@dataclass(frozen=True)
class DoubleDiffSet:
    """The double differences of a block of B pairs on the session's
    satellite columns. `rows` (B, S) marks each pair's DD satellites,
    `reference` (B, S) holds the column of each one's reference and
    `used` marks both. The last axis of `observed` and `weight` is (DD
    phase, DD code at the past epoch, at the current epoch); `weight` is
    the inverse of a DD satellite's own variance, zero off `rows`, and
    `ref_weight` (B, constellations, 3) that of the reference."""

    sats: tuple
    spans: tuple
    rows: np.ndarray
    used: np.ndarray
    reference: np.ndarray
    observed: np.ndarray               # (B, S, 3) [m]
    weight: np.ndarray                 # (B, S, 3) [1/m^2]
    ref_weight: np.ndarray
    sat_past: np.ndarray               # (B, S, 3) [m ECEF]
    sat_current: np.ndarray
    receiver_past: np.ndarray          # (B, 3) linearization anchor
    receiver_current: np.ndarray

    def take(self, pairs) -> DoubleDiffSet:
        """The DD sets of the pairs at the indices `pairs`."""
        return DoubleDiffSet(self.sats, self.spans, *(
            getattr(self, field.name)[pairs] for field in fields(self)[2:]))


def _locked(s: SessionArrays, past, current, dt, interval) -> np.ndarray:
    """(B, S): satellites continuously locked through each pair. A lock
    counter that grew by at least one per epoch over the gap means the
    carrier loop never reset; anything less implies a slip."""
    first = np.where(dt < 0, current, past)
    last = np.where(dt < 0, past, current)
    gap = np.rint(np.abs(dt) / interval)
    return ((s.lock[past] >= 0) & (s.lock[current] >= 0)
            & (s.lock[last] - s.lock[first] >= gap[:, None]))


def time_single_difference(s: SessionArrays, past, current) -> np.ndarray:
    """(B, S) time-differenced carrier phase [m] of the epoch pairs
    (past, current). Satellite clock bias is deliberately not corrected:
    it is constant over the short window and cancels in the difference;
    only drift survives, which the window cap keeps below the noise."""
    return s.wavelength[current] * (s.phase[current] - s.phase[past])


def _double_differences(s: SessionArrays, past, current, locked,
                        config: TrRtkConfig) -> DoubleDiffSet:
    """Between-satellite differences of each pair's locked satellites
    that both epochs' corrections hold. Carrier phase enters
    time-differenced, so satellite clocks drop out; pseudorange enters per
    epoch with the satellite clock corrected, which keeps the anchor
    position observable. The reference is the highest satellite of each
    constellation at the current epoch (the last in sort order on a tie),
    and only satellites on its carrier wavelength are differenced against
    it (cross-channel GLONASS DD ambiguities would not be integer)."""
    n = np.arange(len(past))[:, None]
    usable = locked & s.usable[past] & s.usable[current]
    wavelength = s.wavelength[current]
    refs = np.zeros((len(past), len(s.spans)), int)
    reference = np.zeros(usable.shape, int)
    for g, (a, b) in enumerate(s.spans):
        height = np.where(usable[:, a:b], s.elevation[current, a:b], -np.inf)
        refs[:, g] = b - 1 - np.argmax(height[:, ::-1], axis=1)
        reference[:, a:b] = refs[:, g, None]
    rows = usable & (reference != np.arange(usable.shape[1])) & (
        np.abs(wavelength - wavelength[n, reference]) <= 1e-12)
    used = rows.copy()
    for g, (a, b) in enumerate(s.spans):
        used[n[:, 0], refs[:, g]] |= rows[:, a:b].any(axis=1)
    # phase carries -iono, +tropo
    phase = (time_single_difference(s, past, current)
             + (s.iono[current] - s.iono[past])
             - (s.tropo[current] - s.tropo[past]))
    per_sat = np.stack([phase, s.code[past], s.code[current]], axis=-1)
    sin_p, sin_c = np.sin(s.elevation[past]), np.sin(s.elevation[current])
    # time difference of two independent epochs: sum of their variances
    variance = np.stack([(config.phase_sigma / sin_p) ** 2
                         + (config.phase_sigma / sin_c) ** 2,
                         (config.code_sigma / sin_p) ** 2,
                         (config.code_sigma / sin_c) ** 2], axis=-1)
    observed = per_sat - np.take_along_axis(per_sat, reference[..., None], 1)
    return DoubleDiffSet(
        s.sats, s.spans, rows, used, reference,
        np.where(rows[..., None], observed, 0.0),
        np.where(rows[..., None], 1.0 / variance, 0.0),
        1.0 / np.take_along_axis(variance, refs[..., None], 1),
        s.sat_position[past], s.sat_position[current],
        s.receiver[past], s.receiver[current])


def _total(x: np.ndarray) -> np.ndarray:
    """Sum over axis 1, strictly left to right: the order is the same for
    every pair, block and padding, and a zero column adds nothing."""
    total = x[:, 0].copy()
    for k in range(1, x.shape[1]):
        total += x[:, k]
    return total


def _weight_terms(weight, ref_weight, spans):
    """`_weigh`'s weight-only terms, per constellation on axis 1: each
    span's most heavily weighted column (from its start), sum(weight),
    0 read as 1, and the denominator 1 + sum(weight) / ref_weight."""
    shape = (len(weight), len(spans)) + weight.shape[2:]
    origin, total = np.empty(shape, int), np.empty(shape)
    for g, (a, b) in enumerate(spans):
        total[:, g] = _total(weight[:, a:b])
        origin[:, g] = np.argmax(weight[:, a:b], axis=1)
    return origin, np.where(total > 0, total, 1.0), 1.0 + total / ref_weight


def _weigh(x, weight, ref_weight, spans, terms=None) -> np.ndarray:
    """W x, W the inverse of the covariance whose block on the columns
    `spans[g]` (axis 1) is diag(1 / weight) + 11^T / ref_weight[:, g]:
    each DD shares its reference's error. Sherman-Morrison, written with
    the block's weighted mean m = sum(weight x) / sum(weight), gives
    W x = weight (x - m + m / (1 + sum(weight) / ref_weight)), so no
    matrix is formed or inverted. Differences are taken from the most
    heavily weighted satellite's x, whose own x - m would otherwise
    cancel to a few digits when its variance is far below the others'.
    Given `terms`, the weights' `_weight_terms`, `ref_weight` is unread."""
    origin, total, denominator = terms or _weight_terms(weight, ref_weight,
                                                        spans)
    out = np.empty(np.broadcast_shapes(x.shape, weight.shape))
    for g, (a, b) in enumerate(spans):
        w = weight[:, a:b]
        start = np.take_along_axis(x[:, a:b], origin[:, g, None], 1)
        shifted = x[:, a:b] - start
        mean = _total(w * shifted) / total[:, g]
        common = (start[:, 0] + mean) / denominator[:, g]
        out[:, a:b] = w * (shifted - (mean - common)[:, None])
    return out


def _model(dd: DoubleDiffSet, baseline, shift):
    """Per-epoch DD geometric ranges (B, S), their Jacobians (B, S, 3)
    and each pair's shortest distance to a satellite it uses (B,).

    `shift` is the common error d of the assumed past positions: a past
    receiver sits at receiver_past + d, its current one at
    receiver_past + d + B, so jac_past = dg_past/dd and jac_current =
    dg_current/dB = dg_current/dd."""
    p_past = dd.receiver_past + shift
    out = []
    nearest = np.inf
    # a satellite on the receiver divides by zero; the range check
    # refuses that pair
    with np.errstate(divide="ignore", invalid="ignore"):
        for receiver, sats in ((p_past, dd.sat_past),
                               (p_past + baseline, dd.sat_current)):
            unit, rng, distance = unchecked_lines_of_sight(receiver[:, None],
                                                           sats)
            out.append(rng - np.take_along_axis(rng, dd.reference, 1))
            # d|p-s|/dp = -unit(receiver->sat)
            out.append(np.take_along_axis(unit, dd.reference[..., None], 1)
                       - unit)
            nearest = np.minimum(nearest, np.where(dd.used, distance,
                                                   np.inf).min(axis=1))
    g_past, jac_past, g_cur, jac_cur = out
    return g_past, g_cur, jac_past, jac_cur, nearest


def _norm1(a: np.ndarray) -> np.ndarray:
    """Matrix 1-norm of each of a stack: the largest absolute column sum."""
    return np.abs(a).sum(axis=-2).max(axis=-1)


def _chi2_survival(x: float, dof: int) -> float:
    """P(X > x) for X chi-squared on an integer `dof` >= 1: the closed-form
    series of the regularized upper incomplete gamma function, which for
    odd `dof` starts from erfc."""
    half = 0.5 * max(x, 0.0)          # a zero sum may round below 0
    odd = dof % 2
    total = math.erfc(math.sqrt(half)) if odd else 0.0
    term = math.exp(-half) * (2.0 * math.sqrt(half / math.pi) if odd else 1.0)
    for k in range(1, dof // 2 + 1):
        total += term
        term *= half / (k + 0.5 * odd)
    return total


def solve_float_baseline(dd: DoubleDiffSet, config: TrRtkConfig | None = None,
                         active=None):
    """WLS over baseline and anchor-position error of each pair of `dd`
    (each one `active` marks), DD integers held at 0.

    Every DD satellite stayed locked through the window, so its time-DD
    ambiguity is zero and DD phase measures the change of DD range. DD
    pseudorange keeps the anchor observable through the change of line of
    sight over the window, so the common error of the assumed past
    position is estimated alongside the baseline under a loose prior.
    Returns (B, 3) baselines, their (B, 3, 3) covariances, the (B,)
    weighted residual sums of squares (3m - 3 degrees of freedom for m
    DDs), and per pair None or the GnssError that stopped it."""
    config = config or TrRtkConfig()
    count = len(dd.rows)
    active = np.ones(count, bool) if active is None else active.copy()
    baseline = dd.receiver_current - dd.receiver_past
    shift = np.zeros((count, 3))
    cov, omega = np.zeros((count, 3, 3)), np.zeros(count)
    errors = [None] * count
    prior = 1.0 / config.position_prior_sigma ** 2
    terms = _weight_terms(dd.weight[..., None], dd.ref_weight[..., None],
                          dd.spans)
    for iteration in range(10):
        # only the pairs still moving, which keep their bits (module doc)
        pairs = np.flatnonzero(active)
        if not pairs.size:
            break
        sub = dd.take(pairs)
        g_past, g_cur, jac_p, jac_c, nearest = _model(sub, baseline[pairs],
                                                      shift[pairs])
        # rows (phase, code past, code current) of [d/dB, d/dd | residual]
        lin = np.zeros(g_past.shape + (3, 7))
        lin[..., 0, :3] = lin[..., 2, :3] = lin[..., 2, 3:6] = jac_c
        lin[..., 0, 3:6] = jac_c - jac_p
        lin[..., 1, 3:6] = jac_p
        lin[..., 6] = sub.observed - np.stack([g_cur - g_past, g_past, g_cur],
                                              axis=-1)
        weighted = _weigh(lin, sub.weight[..., None], None, dd.spans,
                          [term[pairs] for term in terms])
        # one 7x3 by 3x7 product per (pair, satellite), then their sum:
        # [J^T W J, J^T W r; ., r^T W r] of each pair
        summed = _total(np.matmul(lin.transpose(0, 1, 3, 2), weighted))
        normal = summed[:, :6, :6] + np.diag([0.0] * 3 + [prior] * 3)
        rhs = summed[:, :6, 6]
        rhs[:, 3:] -= prior * shift[pairs]
        degenerate = ~(nearest >= 1e6)
        normal[degenerate] = np.eye(6)
        # a zero LU pivot, on which inv would raise for the whole stack
        zero_pivot = np.linalg.slogdet(normal)[0] == 0
        normal[zero_pivot] = np.eye(6)
        # numpy hands out no LU factor, so the check inverts the same
        # matrices: that gives the exact 1-norm condition numbers, and at
        # a pair's last iteration its inverse is the covariance
        normal_inv = np.linalg.inv(normal)
        singular = ~degenerate & (zero_pivot | ~(
            _norm1(normal) * _norm1(normal_inv) <= 1e14))
        for k in np.flatnonzero(degenerate):
            errors[pairs[k]] = DegenerateGeometry(
                f"satellite range {nearest[k]:.0f} m implausible")
        for k in np.flatnonzero(singular):
            errors[pairs[k]] = SingularGeometry(
                "degenerate double-difference geometry")
        ok = ~degenerate & ~singular
        step = pairs[ok]
        if not step.size:
            break               # no step on singular normal equations
        delta = np.linalg.solve(normal[ok], rhs[ok][..., None])[..., 0]
        # the weighted squares of the residuals after the step, r - J delta
        omega[step] = (summed[ok, 6, 6]
                       + prior * (shift[step] ** 2).sum(axis=1)
                       - (delta * rhs[ok]).sum(axis=1))
        baseline[step] += delta[:, :3]
        shift[step] += delta[:, 3:]
        block = normal_inv[ok, :3, :3]
        cov[step] = 0.5 * (block + block.transpose(0, 2, 1))
        # Gauss-Newton steps shrink ~1e6-fold per iteration down to the
        # ~1e-9 m round-off floor; a micrometre step has converged
        active[:] = False
        active[step] = np.sqrt((delta[:, :3] ** 2).sum(axis=1)) >= 1e-6
    return baseline, cov, omega, errors


def solve_pairs(s: SessionArrays, pairs, config: TrRtkConfig | None = None,
                interval: float = 1.0) -> list:
    """The TrRtkResult of every (past, current) epoch pair of `s`, or the
    GnssError that stopped it, in the order of `pairs`, `BLOCK_PAIRS` at
    a time. A pair is Fixed, with every DD integer 0, when the chi-squared
    test of its weighted residuals gives a p-value of at least
    `INTEGRITY_P_MIN` and sqrt(trace) of its baseline covariance is at
    most `PRECISION_MAX_M`; otherwise it is Rejected and must not become
    a graph edge. `interval` is the observation spacing [s] the slip
    screen expects the lock counts to grow by."""
    config = config or TrRtkConfig()
    pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
    out = []
    for start in range(0, len(pairs), BLOCK_PAIRS):
        out += _solve_block(s, *pairs[start:start + BLOCK_PAIRS].T, config,
                            interval)
    return out


def _solve_block(s: SessionArrays, past, current, config, interval) -> list:
    dt = [s.times[j] - s.times[i] for i, j in zip(past, current)]
    out = [None] * len(dt)

    def fail(mask, error):
        for k in np.flatnonzero(mask):
            out[k] = out[k] or error(k)

    fail(np.abs(dt) > config.max_time_difference, lambda k: WindowExceeded(
        f"pair separated by {dt[k]:.1f} s exceeds "
        f"{config.max_time_difference:.1f} s window"))
    locked = _locked(s, past, current, np.array(dt), interval)
    n_locked = locked.sum(axis=1)
    fail(n_locked < 5, lambda k: InsufficientSatellites(
        f"only {n_locked[k]} continuously locked satellites"))
    dd = _double_differences(s, past, current, locked, config)
    m = dd.rows.sum(axis=1)
    fail(m < 4, lambda k: InsufficientSatellites(
        f"only {m[k]} double differences formed"))
    alive = np.array([r is None for r in out])
    baseline, cov, omega, errors = solve_float_baseline(dd, config, alive)
    precise = np.sqrt(np.trace(cov, axis1=1, axis2=2)) <= PRECISION_MAX_M
    for k in np.flatnonzero(alive):
        if errors[k] is not None:
            out[k] = errors[k]
            continue
        p_value = _chi2_survival(float(omega[k]), 3 * int(m[k]) - 3)
        fixed = p_value >= INTEGRITY_P_MIN and precise[k]
        out[k] = TrRtkResult(
            baseline[k], cov[k],
            BaselineStatus.FIXED if fixed else BaselineStatus.REJECTED,
            p_value, dt[k], (0,) * int(m[k]) if fixed else ())
    return out


def detect_cycle_slips(s: SessionArrays, past: int, current: int,
                       interval: float = 1.0) -> set:
    """Satellites continuously locked from epoch `past` through epoch
    `current` of `s`: the kernel's slip screen on one pair."""
    dt = np.array([s.times[current] - s.times[past]])
    locked = _locked(s, [past], [current], dt, interval)[0]
    return {s.sats[k] for k in np.flatnonzero(locked)}


def form_double_differences(s: SessionArrays, past: int, current: int,
                            config: TrRtkConfig | None = None,
                            interval: float = 1.0) -> DoubleDiffSet:
    """The kernel's slip screen and DD formation on the pair (past,
    current) of `s`: a one-pair `DoubleDiffSet`, or
    InsufficientSatellites below 4 DDs."""
    dt = np.array([s.times[current] - s.times[past]])
    locked = _locked(s, [past], [current], dt, interval)
    dd = _double_differences(s, [past], [current], locked,
                             config or TrRtkConfig())
    m = dd.rows.sum()
    if m < 4:
        raise InsufficientSatellites(f"only {m} double differences formed")
    return dd


def estimate_baseline(s: SessionArrays, past: int, current: int,
                      config: TrRtkConfig | None = None,
                      interval: float = 1.0) -> TrRtkResult:
    """`solve_pairs` on the pair (past, current) of `s`: its TrRtkResult,
    or its GnssError raised."""
    (result,) = solve_pairs(s, [(past, current)], config, interval)
    if isinstance(result, GnssError):
        raise result
    return result
