"""Time-relative carrier-phase baseline estimation.

Forms time-differenced, then between-satellite double-differenced (DD)
carrier phase and pseudorange between a past and a current epoch of the
same receiver, solves a float baseline by weighted least squares, fixes
the DD integer ambiguities with the LAMBDA method, and returns the
fixed past-to-current baseline with its conditional covariance.

Receiver clock terms cancel in the between-satellite difference and
satellite clock biases cancel in the time difference, so only clock
drift over the (bounded) window remains as an unmodeled error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .ambiguity import AmbiguityProblem, lambda_resolve
from .coords import lines_of_sight
from .errors import (InsufficientSatellites, MissingSatellite,
                     SingularGeometry, WindowExceeded)
from .geometry import EpochGeometry
from .types import Constellation, Epoch, SatelliteId

# candidate loop-closure time offsets [s]; medium-range edges matter most,
# full O(n^2) pairing is redundant
TR_PAIR_LATTICE = (5.0, 10.0, 20.0, 30.0, 45.0, 60.0, 80.0, 100.0)


class BaselineStatus(Enum):
    FIXED = "Fixed"
    FLOAT = "Float"
    REJECTED = "Rejected"


@dataclass
class TrRtkConfig:
    max_time_difference: float = 100.0  # [s]
    ratio_threshold: float = 3.0
    phase_sigma: float = 0.003          # [m] zenith, per single measurement
    code_sigma: float = 0.5             # [m] zenith, per single measurement
    elevation_mask: float = np.radians(15.0)
    position_prior_sigma: float = 3.0   # anchor-position error prior [m]


@dataclass(frozen=True)
class DoubleDiffEntry:
    sat: SatelliteId
    reference: SatelliteId
    dd_phase: float           # [m] atmosphere-corrected time-DD carrier phase
    dd_code_past: float       # [m] between-satellite DD pseudorange, past epoch
    dd_code_current: float    # [m] same at the current epoch
    wavelength: float
    sigma_phase: float        # time-difference sigma of `sat` phase [m]
    sigma_code_past: float    # per-epoch code sigma of `sat` [m]
    sigma_code_current: float

    @property
    def dd_code(self) -> float:
        """Time-differenced DD pseudorange [m]."""
        return self.dd_code_current - self.dd_code_past


@dataclass(frozen=True)
class DoubleDiffSet:
    time_past: object
    time_current: object
    reference: dict                    # Constellation -> SatelliteId
    entries: tuple
    states_past: dict                  # SatelliteId -> SatelliteState
    states_current: dict
    receiver_past: np.ndarray          # linearization anchor [m ECEF]
    receiver_current: np.ndarray
    ref_sigma_phase: dict = field(default_factory=dict)
    ref_sigma_code_past: dict = field(default_factory=dict)
    ref_sigma_code_current: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TrRtkResult:
    baseline: np.ndarray               # past -> current [m ECEF]
    covariance: np.ndarray             # 3x3 [m^2]
    status: BaselineStatus
    ratio: float
    time_difference: float             # [s]
    dd_ambiguities: tuple


def detect_cycle_slips(past: Epoch, current: Epoch, interval: float = 1.0) -> set:
    """Satellites continuously locked from `past` through `current`.

    A lock counter that grew by exactly one per epoch over the gap means
    the carrier loop never reset; anything less implies a slip.
    """
    first, last = sorted((past, current), key=lambda e: e.time)
    gap = int(round((last.time - first.time) / interval))
    locked = set()
    for sat in first.sat_ids & last.sat_ids:
        delta = last.get(sat).lock_count - first.get(sat).lock_count
        if delta >= gap:
            locked.add(sat)
    return locked


def time_single_difference(past: Epoch, current: Epoch, sats) -> dict:
    """Time-differenced carrier phase in meters, per satellite.

    Satellite clock bias is deliberately not corrected: it is constant
    over the short window and cancels in the difference; only drift
    survives, which the window cap keeps below the noise floor.
    """
    out = {}
    for sat in sorted(sats, key=lambda s: s.sort_key()):
        obs_p = past.get(sat)
        obs_c = current.get(sat)
        if obs_p is None or obs_c is None:
            raise MissingSatellite(f"{sat} absent from epoch pair")
        out[sat] = obs_c.wavelength * (obs_c.carrier_phase - obs_p.carrier_phase)
    return out


@dataclass(frozen=True)
class EpochCorrections:
    """Per-satellite quantities of one epoch, shared by all its pairs.

    Evaluated once at the receiver position `position`, and only for the
    satellites a double difference can use: observed, with a known
    state, above the elevation mask and within the atmosphere models.
    """

    position: np.ndarray               # [m ECEF]
    states: dict                       # SatelliteId -> SatelliteState
    elevation: dict                    # SatelliteId -> [rad]
    atmosphere: dict                   # SatelliteId -> (iono, tropo) [m]
    code: dict                         # SatelliteId -> corrected pseudorange [m]


def epoch_corrections(geometry: EpochGeometry,
                      config: TrRtkConfig | None = None) -> EpochCorrections:
    """Elevation, modeled (iono, tropo) delay, and pseudorange with the
    satellite clock and modeled atmosphere removed, per satellite, as
    `geometry` has them at its receiver position with its delay models.
    """
    config = config or TrRtkConfig()
    rows = geometry.above(config.elevation_mask)
    # a satellite the troposphere model rejects (ElevationTooLow) is left out
    rows = rows[~np.isnan(geometry.tropo[rows])]
    geometry.require_delays(rows)
    sats = [geometry.sats[k] for k in rows]
    delays = zip(geometry.iono[rows].tolist(), geometry.tropo[rows].tolist())
    return EpochCorrections(
        geometry.position,
        dict(zip(sats, (geometry.states[k] for k in rows))),
        dict(zip(sats, geometry.elevation[rows].tolist())),
        dict(zip(sats, delays)),
        dict(zip(sats, geometry.corrected_code[rows].tolist())))


def form_double_differences(sd_phase: dict, past: Epoch, current: Epoch,
                            corrections_past: EpochCorrections,
                            corrections_current: EpochCorrections,
                            config: TrRtkConfig | None = None
                            ) -> DoubleDiffSet:
    """Between-satellite differences of the paired-epoch observables.

    Carrier phase enters time-differenced (the DD of `sd_phase`), so its
    ambiguity is the integer time-DD ambiguity and satellite clocks drop
    out. Pseudorange enters per epoch with the satellite clock corrected
    explicitly, which keeps the absolute anchor position observable.
    The reference satellite is the highest-elevation continuously locked
    satellite of each constellation at the current epoch; differences are
    formed only within a constellation and only between satellites that
    share a carrier wavelength (which excludes cross-channel GLONASS
    pairs, whose DD ambiguity would not be integer).
    The corrections of each epoch, `epoch_corrections`, fix its receiver
    position (the linearization anchor) and its satellite states.
    """
    config = config or TrRtkConfig()
    elev_past = corrections_past.elevation
    elev_cur = corrections_current.elevation

    by_const: dict[Constellation, list] = {}
    for sat in sd_phase:
        if sat in elev_past and sat in elev_cur:
            by_const.setdefault(sat.constellation, []).append(sat)

    def corrected_phase(sat):
        ip, tp = corrections_past.atmosphere[sat]
        ic, tc = corrections_current.atmosphere[sat]
        # phase carries -iono, +tropo
        return sd_phase[sat] + (ic - ip) - (tc - tp)

    entries = []
    reference = {}
    ref_sigma_phase = {}
    ref_sigma_code_past = {}
    ref_sigma_code_current = {}
    for const in sorted(by_const, key=lambda c: c.value):
        sats = by_const[const]
        if len(sats) < 2:
            continue
        ref = max(sats, key=lambda s: (elev_cur[s], s.sort_key()))
        lam_ref = current.get(ref).wavelength
        ref_phase = corrected_phase(ref)
        ref_code_p = corrections_past.code[ref]
        ref_code_c = corrections_current.code[ref]
        added = False
        for sat in sorted(sats, key=lambda s: s.sort_key()):
            if sat == ref:
                continue
            lam = current.get(sat).wavelength
            if abs(lam - lam_ref) > 1e-12:
                continue
            entries.append(DoubleDiffEntry(
                sat=sat, reference=ref,
                dd_phase=corrected_phase(sat) - ref_phase,
                dd_code_past=corrections_past.code[sat] - ref_code_p,
                dd_code_current=corrections_current.code[sat] - ref_code_c,
                wavelength=lam,
                # time difference of two independent epochs: factor 2 variance
                sigma_phase=np.sqrt(
                    (config.phase_sigma / np.sin(elev_past[sat])) ** 2
                    + (config.phase_sigma / np.sin(elev_cur[sat])) ** 2),
                sigma_code_past=config.code_sigma / np.sin(elev_past[sat]),
                sigma_code_current=config.code_sigma / np.sin(elev_cur[sat]),
            ))
            added = True
        if added:
            reference[const] = ref
            ref_sigma_phase[const] = np.sqrt(
                (config.phase_sigma / np.sin(elev_past[ref])) ** 2
                + (config.phase_sigma / np.sin(elev_cur[ref])) ** 2)
            ref_sigma_code_past[const] = config.code_sigma / np.sin(elev_past[ref])
            ref_sigma_code_current[const] = config.code_sigma / np.sin(elev_cur[ref])

    if len(entries) < 4:
        raise InsufficientSatellites(
            f"only {len(entries)} double differences formed")
    return DoubleDiffSet(past.time, current.time, reference, tuple(entries),
                         corrections_past.states, corrections_current.states,
                         corrections_past.position,
                         corrections_current.position, ref_sigma_phase, ref_sigma_code_past,
                         ref_sigma_code_current)


def _dd_covariance(dd: DoubleDiffSet, ref_sigma: dict, attr: str) -> np.ndarray:
    """Full DD covariance with the single-reference correlation structure:
    the reference's variance wherever two DDs share a reference, plus the
    satellite's own variance on the diagonal."""
    group = {}
    ref = np.array([group.setdefault(e.reference, len(group))
                    for e in dd.entries])
    var_ref = np.array([ref_sigma[e.sat.constellation] ** 2
                        for e in dd.entries])
    var_own = np.array([getattr(e, attr) ** 2 for e in dd.entries])
    cov = np.where(ref[:, None] == ref, var_ref[:, None], 0.0)
    cov[np.diag_indices_from(cov)] += var_own
    return cov


def _model_and_jacobian(dd: DoubleDiffSet, baseline: np.ndarray,
                        anchor_shift: np.ndarray | None = None):
    """Per-epoch DD geometric ranges and their Jacobians.

    `anchor_shift` is the common error d of the assumed past position:
    the past receiver sits at receiver_past + d, the current one at
    receiver_past + d + B. Returns (g_past, g_current, jac_past,
    jac_current) where jac_past = dg_past/dd (g_past does not depend on
    B) and jac_current = dg_current/dB = dg_current/dd.
    """
    shift = np.zeros(3) if anchor_shift is None else anchor_shift
    p_past = dd.receiver_past + shift
    p_cur = p_past + baseline
    sats = list(dict.fromkeys([e.sat for e in dd.entries]
                              + list(dd.reference.values())))
    index = {sat: k for k, sat in enumerate(sats)}
    own = [index[e.sat] for e in dd.entries]
    ref = [index[e.reference] for e in dd.entries]
    unit_past, range_past = lines_of_sight(
        p_past, np.array([dd.states_past[s].position for s in sats]))
    unit_cur, range_cur = lines_of_sight(
        p_cur, np.array([dd.states_current[s].position for s in sats]))
    g_past = range_past[own] - range_past[ref]
    g_cur = range_cur[own] - range_cur[ref]
    # d|p-s|/dp = -unit(receiver->sat)
    jac_past = unit_past[ref] - unit_past[own]
    jac_cur = unit_cur[ref] - unit_cur[own]
    return g_past, g_cur, jac_past, jac_cur


def _norm1(a: np.ndarray) -> float:
    """Matrix 1-norm: the largest absolute column sum."""
    return np.abs(a).sum(axis=0).max()


def solve_float_baseline(dd: DoubleDiffSet, config: TrRtkConfig | None = None):
    """Joint WLS over baseline, anchor-position error, and real ambiguities.

    DD pseudorange supplies the geometry that makes the system
    overdetermined; DD phase pins the ambiguities. The common error of
    the assumed past position enters the model through the change of
    line-of-sight over the window, so it is estimated alongside the
    baseline under a loose prior instead of biasing the ambiguities.
    Returns (baseline, AmbiguityProblem, joint covariance) where the
    joint covariance is ordered [baseline(3), ambiguities(m)].
    """
    config = config or TrRtkConfig()
    m = len(dd.entries)
    if m < 4:
        raise InsufficientSatellites(f"only {m} double differences")
    lam = np.array([e.wavelength for e in dd.entries])
    obs_phase = np.array([e.dd_phase for e in dd.entries])
    obs_code_p = np.array([e.dd_code_past for e in dd.entries])
    obs_code_c = np.array([e.dd_code_current for e in dd.entries])

    rows = 3 * m + 3
    cov = np.zeros((rows, rows))
    cov[:m, :m] = _dd_covariance(dd, dd.ref_sigma_phase, "sigma_phase")
    cov[m:2 * m, m:2 * m] = _dd_covariance(dd, dd.ref_sigma_code_past,
                                           "sigma_code_past")
    cov[2 * m:3 * m, 2 * m:3 * m] = _dd_covariance(
        dd, dd.ref_sigma_code_current, "sigma_code_current")
    cov[3 * m:, 3 * m:] = config.position_prior_sigma ** 2 * np.eye(3)
    weight = np.linalg.inv(cov)

    baseline = dd.receiver_current - dd.receiver_past
    shift = np.zeros(3)
    ambiguity = np.zeros(m)
    for _ in range(10):
        g_past, g_cur, jac_p, jac_c = _model_and_jacobian(dd, baseline, shift)
        residual = np.concatenate([
            obs_phase - (g_cur - g_past) - lam * ambiguity,
            obs_code_p - g_past,
            obs_code_c - g_cur,
            -shift,
        ])
        jac = np.zeros((rows, 6 + m))
        jac[:m, :3] = jac_c
        jac[:m, 3:6] = jac_c - jac_p
        jac[:m, 6:] = np.diag(lam)
        jac[m:2 * m, 3:6] = jac_p
        jac[2 * m:3 * m, :3] = jac_c
        jac[2 * m:3 * m, 3:6] = jac_c
        jac[3 * m:, 3:6] = np.eye(3)
        normal = jac.T @ weight @ jac
        # numpy hands out no LU factor, so the check inverts the same
        # matrix: that gives the exact 1-norm condition number, and at the
        # last iteration the inverse is the joint covariance
        try:
            normal_inv = np.linalg.inv(normal)
        except np.linalg.LinAlgError:
            normal_inv = None
        if (normal_inv is None
                or _norm1(normal) * _norm1(normal_inv) > 1e14):
            raise SingularGeometry("degenerate double-difference geometry")
        delta = np.linalg.solve(normal, jac.T @ weight @ residual)
        baseline = baseline + delta[:3]
        shift = shift + delta[3:6]
        ambiguity = ambiguity + delta[6:]
        # Gauss-Newton steps shrink ~1e6-fold per iteration down to the
        # ~1e-9 m round-off floor; a micrometre step has converged
        if np.linalg.norm(delta[:3]) < 1e-6:
            break

    keep = np.r_[0:3, 6:6 + m]
    joint_cov = normal_inv[np.ix_(keep, keep)]
    joint_cov = 0.5 * (joint_cov + joint_cov.T)
    problem = AmbiguityProblem(ambiguity, joint_cov[3:, 3:])
    return baseline, problem, joint_cov


def estimate_baseline(past: Epoch, current: Epoch,
                      corrections_past: EpochCorrections,
                      corrections_current: EpochCorrections,
                      config: TrRtkConfig | None = None,
                      bases: dict | None = None,
                      interval: float = 1.0) -> TrRtkResult:
    """Full pipeline: slip screening, DD formation, float solve, LAMBDA fix.

    On an accepted ratio test the baseline is re-conditioned on the
    integer ambiguities; otherwise the result is Rejected and must not
    become a graph edge. Each epoch's `epoch_corrections` are computed
    once and shared by all its pairs; `interval` is the observation
    spacing [s] the slip screen expects the lock counts to grow by. A
    caller passes one `bases` dict for all its pairs: it maps a DD
    layout, the ordered (sat, reference) tuple of the entries, to the
    decorrelating Z that LAMBDA last ended with, and LAMBDA starts the
    next pair of that layout there. The result does not depend on the
    starting Z.
    """
    config = config or TrRtkConfig()
    dt = current.time - past.time
    if abs(dt) > config.max_time_difference:
        raise WindowExceeded(
            f"pair separated by {dt:.1f} s exceeds "
            f"{config.max_time_difference:.1f} s window")

    sats = detect_cycle_slips(past, current, interval)
    if len(sats) < 5:
        raise InsufficientSatellites(
            f"only {len(sats)} continuously locked satellites")
    sd_phase = time_single_difference(past, current, sats)
    dd = form_double_differences(sd_phase, past, current, corrections_past,
                                 corrections_current, config)
    baseline, problem, joint_cov = solve_float_baseline(dd, config)
    bases = {} if bases is None else bases
    layout = tuple((e.sat, e.reference) for e in dd.entries)
    problem.basis = bases.get(layout)
    integers, ratio, accepted = lambda_resolve(problem, config.ratio_threshold)
    bases[layout] = problem.basis

    if not accepted:
        return TrRtkResult(baseline, joint_cov[:3, :3].copy(),
                           BaselineStatus.REJECTED, ratio, dt, ())

    # condition the baseline on the fixed integers
    q_bn = joint_cov[:3, 3:]
    q_n = joint_cov[3:, 3:]
    gain = q_bn @ np.linalg.inv(q_n)
    fixed = baseline - gain @ (problem.float_values - integers)
    cov = joint_cov[:3, :3] - gain @ q_bn.T
    cov = 0.5 * (cov + cov.T)
    return TrRtkResult(fixed, cov, BaselineStatus.FIXED, ratio, dt,
                       tuple(int(v) for v in integers))
