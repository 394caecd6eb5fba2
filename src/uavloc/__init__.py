"""UAV-aided ground-user localization: 5G-NR-faithful ToA simulation,
joint least-squares SLAM, Fisher-information/CRB accounting, and greedy
informative trajectory planning.

Each name is imported from the module that owns it (`from uavloc.mission
import run_mission`); the package itself re-exports nothing, so importing
one module loads only what that module imports."""

__version__ = "0.1.0"
