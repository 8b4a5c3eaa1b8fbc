"""GNSS trajectory reconstruction by factor-graph optimization.

Doppler velocity edges, multi-constellation pseudorange constraints,
and time-relative RTK carrier-phase loop closures, solved with a Dogleg
trust-region optimizer on block normal equations. A synthetic
multi-GNSS simulator, RINEX 3.04 observation I/O, and trajectory
metrics round out the toolkit.
"""

from .ambiguity import AmbiguityProblem, lambda_resolve
from .atmosphere import (KlobucharParams, TropoModel, klobuchar_delay,
                         saastamoinen_delay)
from .coords import (ecef_to_enu, ecef_to_geodetic, elevation_azimuth,
                     enu_rotation, geodetic_to_ecef, line_of_sight)
from .errors import GnssError
from .fileio import (TrajectoryStatus, export_graph_json, load_pipeline_yaml,
                     load_scenario_yaml, read_sat_states_csv,
                     read_trajectory_csv, save_scenario_yaml,
                     write_sat_states_csv, write_trajectory_csv)
from .geometry import EpochGeometry
from .gnsstime import GpsTime
from .graph import (Graph, OptimizerReport, build_graph, evaluate_cost,
                    optimize)
from .metrics import EvaluationReport, compute_ape, compute_rpe, evaluate
from .pipeline import PipelineConfig, PipelineResult, solve_trajectory
from .pointpos import (SolverConfig, SppSolution, VelocitySolution,
                       solve_doppler_velocity, solve_spp)
from .rinex import (RinexHeader, header_for_scenario, parse_rinex_obs,
                    write_rinex_obs)
from .sim import (NoiseConfig, ScenarioConfig, TrajectoryConfig, TruthRecord,
                  run_scenario)
from .trrtk import (BaselineStatus, TrRtkConfig, TrRtkResult,
                    detect_cycle_slips, epoch_corrections,
                    estimate_baseline, form_double_differences)
from .types import (STATE_COLUMNS, Constellation, Epoch, GeodeticPosition,
                    SatelliteId)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
