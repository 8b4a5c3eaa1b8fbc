"""Time-relative carrier-phase baseline estimation.

Forms time-differenced, then between-satellite double-differenced (DD)
carrier phase and pseudorange between a past and a current epoch of the
same receiver and solves the past-to-current baseline by weighted least
squares. Every DD integer ambiguity is held at zero, as the slip screen
makes it by construction (the time-differenced carrier phase model of
van Graas & Soloviev 2004 and Freda et al. 2015); a chi-squared test of
the residuals and the formal baseline precision gate the result.

Receiver clock terms cancel in the between-satellite difference. The
satellite clocks are not corrected in the time-differenced phase: each
changes over the window by its own drift, so the change survives the
between-satellite difference as an unmodeled error, and not one below
the noise: a drift of 1e-12 s/s gives 3 cm over 100 s.

`epoch_corrections` scatters a located `EpochGeometry`, lines of sight
included, onto one (epoch, satellite) grid, `SessionArrays`, and
`solve_pairs` solves a lattice of its epoch pairs (by default each epoch
with the epochs `TR_PAIR_LATTICE` seconds before it) in blocks, on arrays
indexed by (pair, session satellite). Each pair is one linear WLS,
linearized at the located receivers, the point solutions; their error
delta leaves at most |delta|^2 / 2 rho in a range (see
`solve_float_baseline`). Its normal equations under the DD covariance
D + r 11^T are one centered weighted Gram product in a workspace made
once per call, and one Cholesky factor per pair gives its singularity
check, step and covariance (`pointpos.solve_normals`). Each block
gathers per-epoch terms made once per call and fills its rows of one
`TrRtkPairs` table, whose p-values and fixes are set last. No sum or
product spans two pairs, so a pair gets the same bits in any block; its
GnssError goes into the table's `errors` and never stops the block.
`estimate_baseline`, `detect_cycle_slips` and `form_double_differences`
are views of the kernel on one pair of a session.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# not used here: bench/spans.py traces LAMBDA under this module's name
from .ambiguity import lambda_resolve  # noqa: F401
from .constants import SECONDS_PER_WEEK
from .errors import (DegenerateGeometry, InsufficientSatellites,
                     SingularGeometry, WindowExceeded)
from .geometry import EpochGeometry
from .pointpos import solve_normals
from .types import Checked, SatelliteId, setting

# loop-closure time offsets [s] back from each epoch, within the 100 s
# window. The graph takes the pairs as independent, so each epoch's phase
# noise should enter few of them: an epoch is in up to two pairs per
# offset. The short pair carries the accuracy: on the 200 s square, 8
# offsets from 5 to 100 s made 2.7 times the pairs for no better RPE, and
# the errors of a 10 s displacement 2.5-3.4 times its stated variance
# (NEES/3); without the 5 s offset the RPE doubled
TR_PAIR_LATTICE = (5.0, 30.0, 100.0)

# acceptance gates of a loop closure: the overall-model test must not
# reject the zero-integer model at this level, and the baseline's formal
# RMS error norm, sqrt(trace), must hold 3 cm at twice its value
INTEGRITY_P_MIN = 1e-3
PRECISION_MAX_M = 0.015

# pairs solved together: a block's arrays take a few MB however long the
# session is; 512-pair blocks solved the benchmark square 5% slower and
# took 7.4 MB more peak memory
BLOCK_PAIRS = 128


class BaselineStatus(Enum):
    FIXED = "Fixed"
    REJECTED = "Rejected"


@dataclass(slots=True)
class TrRtkConfig(Checked):
    max_time_difference: float = setting(100.0, above=0.0)  # [s]
    # zenith sigmas of one measurement [m]
    phase_sigma: float = setting(0.003, above=0.0)
    code_sigma: float = setting(0.5, above=0.0)
    # anchor-position error prior [m]
    position_prior_sigma: float = setting(3.0, above=0.0)


@dataclass(frozen=True)
class TrRtkResult:
    baseline: np.ndarray               # past -> current [m ECEF]
    covariance: np.ndarray             # 3x3 [m^2]
    status: BaselineStatus
    p_value: float                     # of the overall-model test
    time_difference: float             # [s]
    dd_ambiguities: tuple


@dataclass(frozen=True)
class TrRtkPairs:
    """The outcomes of epoch pairs, row k of each array pair k's. A pair
    in `errors` has no solution in its rows and is not fixed."""

    pairs: np.ndarray                  # (P, 2) past, current epoch
    time_difference: np.ndarray        # (P,) [s]
    fixed: np.ndarray                  # (P,) bool, else rejected
    baseline: np.ndarray               # (P, 3) past -> current [m ECEF]
    covariance: np.ndarray             # (P, 3, 3) [m^2]
    p_value: np.ndarray                # (P,) of the overall-model test
    dd_count: np.ndarray               # (P,) double differences formed
    errors: dict                       # row -> the GnssError it raised

    @classmethod
    def unsolved(cls, pairs, time_difference) -> TrRtkPairs:
        """The table of `pairs` (P, 2), rejected until solved."""
        count = len(pairs)
        return cls(pairs, time_difference, np.zeros(count, bool),
                   np.zeros((count, 3)), np.zeros((count, 3, 3)),
                   np.zeros(count), np.zeros(count, int), {})

    def result(self, k: int) -> TrRtkResult:
        """Row k as a TrRtkResult; its GnssError raised if it has one."""
        if k in self.errors:
            raise self.errors[k]
        fixed = bool(self.fixed[k])
        return TrRtkResult(
            self.baseline[k], self.covariance[k],
            BaselineStatus.FIXED if fixed else BaselineStatus.REJECTED,
            float(self.p_value[k]), float(self.time_difference[k]),
            (0,) * int(self.dd_count[k]) if fixed else ())


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
    unit: np.ndarray                   # (n, S, 3) receiver to satellite
    range: np.ndarray                  # (n, S) Sagnac-corrected [m]
    elevation: np.ndarray              # (n, S) [rad]
    iono: np.ndarray                   # (n, S) [m]
    tropo: np.ndarray
    code: np.ndarray
    receiver: np.ndarray               # (n, 3) [m ECEF]


def epoch_corrections(located: EpochGeometry,
                      mask: float = np.radians(15.0)) -> SessionArrays:
    """The rows of `located` scattered onto the session grid. Lock count,
    phase and wavelength come from every row; the corrections (line of
    sight and range, elevation, modeled iono and tropo delay, and
    pseudorange with the satellite clock and modeled atmosphere removed)
    only from the rows `located.usable(mask)` gives, the `usable` cells,
    as `located` has them at its receiver positions, which are the
    pairs' linearization points. The earliest range fault of
    `located.range_faults(mask)` is raised."""
    rows, faults = located.usable(mask), located.range_faults(mask)
    if faults:
        raise faults[min(faults)]
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
    # outside `usable`, fillers that keep a block's arithmetic finite: a
    # zero line of sight and range, and a zenith elevation (unit sine)
    return SessionArrays(
        located.times,
        tuple(map(SatelliteId.from_key, located.sats[first].tolist())),
        tuple(zip(starts.tolist(), stops.tolist())),
        grid(every, located.lock, -1), grid(every, located.phase),
        grid(every, located.wavelength), usable,
        grid(used, located.unit[rows]), grid(used, located.range[rows]),
        grid(used, located.elevation[rows], np.pi / 2),
        grid(used, located.iono[rows]), grid(used, located.tropo[rows]),
        grid(used, located.corrected_code[rows]), located.position)


@dataclass(frozen=True)
class DoubleDiffSet:
    """The double differences of a block of B pairs on the session's
    satellite columns. `rows` (B, S) marks each pair's DD satellites,
    `reference` (B, S) holds the column of each one's reference and
    `used` marks both. Axis 1 of `observed` and `weight` is the kind (DD
    phase, DD code at the past epoch, at the current epoch); `weight` is
    the inverse of a DD satellite's own variance, zero off `rows`, and
    `ref_weight` (B, 3, constellations) that of the reference; axis 1 of
    `ranges` and `gradient` is the epoch (past, current)."""

    sats: tuple
    spans: tuple
    rows: np.ndarray
    used: np.ndarray
    reference: np.ndarray
    observed: np.ndarray               # (B, 3, S) [m]
    weight: np.ndarray                 # (B, 3, S) [1/m^2]
    ref_weight: np.ndarray
    ranges: np.ndarray                 # (B, 2, S) DD range at the receiver [m]
    gradient: np.ndarray               # (B, 2, 3, S) its receiver gradient
    nearest: np.ndarray                # (B,) shortest range used [m]
    initial: np.ndarray                # (B, 3) located receivers' baseline


def _locked(s: SessionArrays, past, current, dt, interval) -> np.ndarray:
    """(B, S): satellites continuously locked through each pair. A lock
    counter that grew by at least one per epoch over the gap means the
    carrier loop never reset; anything less implies a slip."""
    gap = np.rint(np.abs(dt) / interval)[:, None]
    grew = np.sign(dt)[:, None] * (s.lock[current] - s.lock[past])
    return (s.lock[past] >= 0) & (s.lock[current] >= 0) & (grew >= gap)


def time_single_difference(s: SessionArrays, past, current) -> np.ndarray:
    """(B, S) time-differenced carrier phase [m] of the epoch pairs
    (past, current). The satellite clock is not corrected: its change
    over the window, c times the satellite's drift times the window,
    differs per satellite, so it survives the between-satellite
    difference and stays as an unmodeled error, 3 cm over 100 s at a
    drift of 1e-12 s/s."""
    return s.wavelength[current] * (s.phase[current] - s.phase[past])


def _epoch_terms(s: SessionArrays, config: TrRtkConfig):
    """Per epoch of `s`: the variances (sigma / sin el)^2 (n, S) of one
    phase and one code measurement, and the lines of sight (n, 3, S)."""
    sin = np.sin(s.elevation)
    return ((config.phase_sigma / sin) ** 2, (config.code_sigma / sin) ** 2,
            np.ascontiguousarray(s.unit.transpose(0, 2, 1)))


def _double_differences(s: SessionArrays, past, current, locked,
                        config: TrRtkConfig, terms=None) -> DoubleDiffSet:
    """Between-satellite differences of each pair's locked satellites
    that both epochs' corrections hold. Carrier phase enters
    time-differenced, with the satellite clocks' change left in it;
    pseudorange enters per epoch with the satellite clock corrected,
    which keeps the anchor position observable. Each satellite is
    differenced against the highest of its constellation at the current
    epoch (the last in sort order on a tie), a GLONASS one whatever its
    FDMA carrier: every DD integer is held at 0, and the receiver clock
    in metres is common to all carriers. `terms`: `_epoch_terms` of `s`."""
    phase_variance, code_variance, sight = terms or _epoch_terms(s, config)
    n = np.arange(len(past))[:, None]
    usable = locked & s.usable[past] & s.usable[current]
    refs = np.zeros((len(past), len(s.spans)), int)
    for g, (a, b) in enumerate(s.spans):
        height = np.where(usable[:, a:b], s.elevation[current, a:b], -np.inf)
        refs[:, g] = b - 1 - np.argmax(height[:, ::-1], axis=1)
    # each column's constellation, whose reference value it takes
    group = np.repeat(np.arange(len(s.spans)), [b - a for a, b in s.spans])
    reference = refs[:, group]
    rows = usable & (reference != np.arange(usable.shape[1]))
    used = rows.copy()
    used[n, refs] |= np.logical_or.reduceat(rows, [a for a, _ in s.spans], 1)
    # phase carries -iono, +tropo
    phase = (time_single_difference(s, past, current)
             + (s.iono[current] - s.iono[past])
             - (s.tropo[current] - s.tropo[past]))
    per_sat = np.stack([phase, s.code[past], s.code[current]], axis=1)
    # time difference of two independent epochs: sum of their variances
    variance = np.stack([phase_variance[past] + phase_variance[current],
                         code_variance[past], code_variance[current]], axis=1)
    observed = per_sat - np.take_along_axis(per_sat, refs[:, None], 2)[
        ..., group]
    # the geometry at each epoch's located receiver, differenced as the
    # observations are; d|p - s|/dp = -unit(receiver -> satellite)
    epochs = np.column_stack([past, current])
    ranges, gradient = s.range[epochs], sight[epochs]
    np.subtract(np.take_along_axis(gradient, refs[:, None, None], 3)[
        ..., group], gradient, out=gradient)
    return DoubleDiffSet(
        s.sats, s.spans, rows, used, reference,
        np.where(rows[:, None], observed, 0.0),
        np.where(rows[:, None], 1.0 / variance, 0.0),
        1.0 / np.take_along_axis(variance, refs[:, None], 2),
        ranges - np.take_along_axis(ranges, refs[:, None], 2)[..., group],
        gradient, np.where(used[:, None], ranges, np.inf).min(axis=(1, 2)),
        s.receiver[current] - s.receiver[past])


def _normal_equations(lin, weight, ref_weight, spans, work):
    """[J^T W J, J^T W r; ., r^T W r] (B, C, C) of each pair's rows. `lin`
    (B, C, K, S) holds column c of the row of kind k and satellite s; W
    inverts the covariance whose block on the satellites `spans[g]` of
    kind k is diag(1 / weight[:, k]) + 11^T / ref_weight[:, k, g], as
    each DD shares its reference's error. That is the model with one
    nuisance per (constellation, kind) group eliminated (Schaffrin &
    Grafarend 1986), so the product is a centered weighted Gram product:
    the reference is a zero row of weight ref_weight, each row of a group
    loses the group's weighted mean m = sum(weight row) / (sum(weight) +
    ref_weight), and weight (row - m)(row - m)^T is summed over the rows.
    Unlike sum(weight row row^T) - (sum(weight) + ref_weight) m m^T, that
    loses no digits when one weight is far above the others. Every
    product covers one pair, formed in the `_workspace` `work`."""
    count, columns, kinds, width = lin.shape
    groups = np.zeros((width, len(spans)))
    for g, (a, b) in enumerate(spans):
        groups[a:b, g] = 1.0
    scratch, centered, weighted = [a[:count] for a in work[1:]]
    flat = (count, columns * kinds, -1)
    mean = (np.matmul(np.multiply(weight[:, None], lin, out=scratch).reshape(
        flat), groups).reshape(count, columns, kinds, -1)
            / (np.matmul(weight, groups) + ref_weight)[:, None])
    np.matmul(mean.reshape(flat), groups.T, out=scratch.reshape(flat))
    np.subtract(lin, scratch, out=centered[..., :width])
    np.negative(mean, out=centered[..., width:])
    centered = centered.reshape(count, columns, -1)
    w = np.concatenate([weight, ref_weight], axis=2).reshape(count, 1, -1)
    return np.matmul(np.multiply(w, centered, out=weighted.reshape(
        centered.shape)), centered.transpose(0, 2, 1))


def _workspace(shape: tuple, groups: int) -> tuple:
    """What blocks fill in place: `lin` of up to `shape` (B, C, K, S), zero
    where never written, a scratch copy, the centered rows and a copy."""
    wide = shape[:3] + (shape[3] + groups,)
    return np.zeros(shape), np.empty(shape), np.empty(wide), np.empty(wide)


def _chi2_survival(x, dof):
    """P(X > x) for X chi-squared on an integer `dof` >= 1, elementwise on
    arrays (or on scalars, to a float): the closed-form series of the
    regularized upper incomplete gamma function, which for odd `dof`
    starts from erfc. Each element sums its own terms in series order."""
    half = 0.5 * np.maximum(x, 0.0)   # a zero sum may round below 0
    dof = np.asarray(dof)
    odd = dof % 2
    total = np.zeros(half.shape)
    total[odd == 1] = [math.erfc(math.sqrt(h)) for h in half[odd == 1]]
    term = np.exp(-half) * np.where(odd, 2.0 * np.sqrt(half / np.pi), 1.0)
    for k in range(1, int(dof.max(initial=0)) // 2 + 1):
        total += np.where(k <= dof // 2, term, 0.0)
        term *= half / (k + 0.5 * odd)
    return total if total.ndim else float(total)


def solve_float_baseline(dd: DoubleDiffSet, config: TrRtkConfig | None = None,
                         active=None, work=None):
    """WLS over baseline and anchor-position error of each pair of `dd`
    (each one `active` marks), DD integers held at 0.

    Every DD satellite stayed locked through the window, so its time-DD
    ambiguity is zero and DD phase measures the change of DD range. DD
    pseudorange keeps the anchor observable through the change of line of
    sight over the window, so the common error of the assumed past
    position is estimated alongside the baseline under a loose prior.
    The model is linearized once, at the receivers `dd` was formed at: a
    range linearized delta off its point is off by at most |delta|^2 /
    2 rho (2.5e-6 m at 10 m), and the lines of sight leave out how the
    Sagnac rotation changes with the range. With receivers 10 m off, the
    one solve is within ~2e-5 m of the converged one, far below the
    ~1.5 cm that error itself causes. One Cholesky factor per pair gives
    its step and covariance, SingularGeometry if singular
    (`pointpos.solve_normals`). Returns (B, 3) baselines, their (B, 3, 3)
    covariances, the (B,) weighted residual sums of squares (3m - 3
    degrees of freedom for m DDs), and per pair None or the GnssError
    that stopped it; a pair left out or stopped keeps its initial
    baseline and a zero covariance and residual sum. The rows are formed
    in `work`, a `_workspace` of at least B pairs."""
    config = config or TrRtkConfig()
    count = len(dd.rows)
    work = work or _workspace((count, 7, 3, len(dd.sats)), len(dd.spans))
    active = np.ones(count, bool) if active is None else active
    baseline = dd.initial.copy()
    cov, omega = np.zeros((count, 3, 3)), np.zeros(count)
    errors = [None] * count
    # columns [d/dB, d/dd | residual] of the rows (phase, code past, code
    # current) of each satellite; the error d of the assumed past position
    # moves the current one too, so dg_current/dd = dg_current/dB
    g_past, g_cur = dd.ranges[:, 0], dd.ranges[:, 1]
    jac_p, jac_c = dd.gradient[:, 0], dd.gradient[:, 1]
    lin = work[0][:count]
    lin[:, :3, 0] = lin[:, :3, 2] = lin[:, 3:6, 2] = jac_c
    lin[:, 3:6, 0] = jac_c - jac_p
    lin[:, 3:6, 1] = jac_p
    lin[:, 6] = dd.observed - np.stack([g_cur - g_past, g_past, g_cur], axis=1)
    summed = _normal_equations(lin, dd.weight, dd.ref_weight, dd.spans, work)
    prior = 1.0 / config.position_prior_sigma ** 2
    normal = summed[:, :6, :6] + np.diag([0.0] * 3 + [prior] * 3)
    rhs = summed[:, :6, 6]
    # a satellite on the receiver gives no line of sight
    degenerate = active & ~(dd.nearest >= 1e6)
    # pairs not solved take an identity; each factor solves [rhs | I],
    # of I only the baseline's three columns, the covariance read
    normal[~active | degenerate] = np.eye(6)
    solved, singular = solve_normals(normal, np.dstack(
        [rhs, np.broadcast_to(np.eye(6)[:, :3], (len(normal), 6, 3))]))
    for k in np.flatnonzero(degenerate):
        errors[k] = DegenerateGeometry(
            f"satellite range {dd.nearest[k]:.0f} m implausible")
    for k in np.flatnonzero(singular):
        errors[k] = SingularGeometry("degenerate double-difference geometry")
    ok = active & ~degenerate & ~singular
    delta, inverse = solved[ok, :, 0], solved[ok, :3, 1:4]
    # the weighted squares of the residuals after the solve, r - J delta
    omega[ok] = summed[ok, 6, 6] - (delta * rhs[ok]).sum(axis=1)
    baseline[ok] += delta[:, :3]
    cov[ok] = 0.5 * (inverse + inverse.transpose(0, 2, 1))
    return baseline, cov, omega, errors


def solve_pairs(s: SessionArrays, pairs, config: TrRtkConfig | None = None,
                interval: float = 1.0) -> TrRtkPairs:
    """The TrRtkPairs table of the (past, current) epoch pairs `pairs` of
    `s`, solved `BLOCK_PAIRS` at a time, each pair once, linearized at
    the receiver positions of `s`, and each pair's GnssError in its
    `errors`. A pair is fixed, with every DD integer 0, when the
    chi-squared test of its weighted residuals gives a p-value of at
    least `INTEGRITY_P_MIN` and sqrt(trace) of its baseline covariance
    is at most `PRECISION_MAX_M`; otherwise it is rejected and must not
    become a graph edge. `interval` is the observation spacing [s] the
    slip screen expects the lock counts to grow by."""
    config = config or TrRtkConfig()
    pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
    past, current = pairs.T
    week, tow = np.array([(t.week, t.tow) for t in s.times]).reshape(-1, 2).T
    dt = (week[current] - week[past]) * SECONDS_PER_WEEK + (tow[current]
                                                             - tow[past])
    table = TrRtkPairs.unsolved(pairs, dt)
    terms = _epoch_terms(s, config)
    work = _workspace((min(len(pairs), BLOCK_PAIRS), 7, 3, len(s.sats)),
                      len(s.spans))
    # per pair: its first error, if it reached the solve, its residual sum
    errors = [None] * len(pairs)
    solved, omega = np.zeros(len(pairs), bool), np.zeros(len(pairs))

    def fail(mask, error, start=0):
        for k in np.flatnonzero(mask):
            errors[start + k] = errors[start + k] or error(k)

    fail(np.abs(dt) > config.max_time_difference, lambda k: WindowExceeded(
        f"pair separated by {dt[k]:.1f} s exceeds "
        f"{config.max_time_difference:.1f} s window"))
    for start in range(0, len(pairs), BLOCK_PAIRS):
        rows = slice(start, start + BLOCK_PAIRS)
        locked = _locked(s, past[rows], current[rows], dt[rows], interval)
        n_locked = locked.sum(axis=1)
        fail(n_locked < 5, lambda k: InsufficientSatellites(
            f"only {n_locked[k]} continuously locked satellites"), start)
        dd = _double_differences(s, past[rows], current[rows], locked,
                                 config, terms)
        m = table.dd_count[rows] = dd.rows.sum(axis=1)
        fail(m < 4, lambda k: InsufficientSatellites(
            f"only {m[k]} double differences formed"), start)
        solved[rows] = [e is None for e in errors[rows]]
        table.baseline[rows], table.covariance[rows], omega[rows], stopped = (
            solve_float_baseline(dd, config, solved[rows], work))
        errors[rows] = [a or b for a, b in zip(errors[rows], stopped)]
    table.errors.update((k, e) for k, e in enumerate(errors) if e)
    table.p_value[solved] = _chi2_survival(omega[solved],
                                           3 * table.dd_count[solved] - 3)
    rms = np.sqrt(np.trace(table.covariance, axis1=1, axis2=2))
    table.fixed[:] = (np.array([e is None for e in errors], dtype=bool)
                      & (table.p_value >= INTEGRITY_P_MIN)
                      & (rms <= PRECISION_MAX_M))
    return table


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
    return solve_pairs(s, [(past, current)], config, interval).result(0)
