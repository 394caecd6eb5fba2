"""UAV-aided ground-user localization: 5G-NR-faithful ToA simulation,
joint least-squares SLAM, Fisher-information/CRB accounting, and greedy
informative trajectory planning."""

from .channel import (RngStream, is_blocked, los_delay, sample_gps, sample_toa,
                      sigma_tau_of_distance)
from .fim import (InfoState, accumulate, crb_trace, improvement_matrix,
                  initial_info, step_contribution, toa_info_contribution)
from .iofiles import (parse_run_config, parse_scenario, read_measurement_log,
                      serialize_scenario, write_measurement_log, export_results)
from .mission import (McSummary, Metrics, MissionResult, circle_path,
                      compute_metrics, monte_carlo, run_mission,
                      straight_line_path)
from .model import (SPEED_OF_LIGHT, AxisBox, MeasurementSample, Scenario,
                    ToaNoiseModel, Vec2, Vec3, validate_scenario)
from .nrtiming import (NrConfig, SawtoothDrift, coarse_rtt, drift_offset,
                       estimate_toa_nr, srs_refine, synth_cir, ta_from_rtt)
from .planner import (PlannerState, greedy_cost, next_waypoint, reach_threshold)
from .slam import (SlamConfig, SolveReport, StateVector, initial_state,
                   objective, solve_slam, toa_jacobian_row)

__version__ = "0.1.0"
