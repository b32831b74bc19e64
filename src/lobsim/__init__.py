"""Agent-based double-auction order book market simulator.

Reproduces gap-driven heavy-tailed return distributions: traders with
random actions place limit orders around the best prices; finite order
lifetimes thin out the book, gaps form between occupied price levels,
and large price shifts follow. Submodules: orderbook (matching engine
and the columnar ``Depth`` record), agents (trader draw rules),
simulator (event loop, calibration), stats (returns, kurtosis,
distributions), impact (virtual market impact curves), experiments
(seed fan-out, sweeps, CSV emission), cli.
"""

from .agents import TraderSpec
from .impact import ImpactCurve, curve_distance, impact_distribution, quantile_volumes
from .orderbook import (
    Depth,
    OrderBook,
    OrderRejected,
    Side,
)
from .simulator import SimConfig, SimOutput, calibrate_c, derive_seed, run
from .experiments import (
    Scenario,
    ScenarioResult,
    SweepResult,
    SweepRow,
    lifetime_sweep,
    run_scenario,
    scenario_from_config,
    write_config,
)

__version__ = "0.1.0"

__all__ = [
    "Depth",
    "ImpactCurve",
    "OrderBook",
    "OrderRejected",
    "Scenario",
    "ScenarioResult",
    "Side",
    "SimConfig",
    "SimOutput",
    "SweepResult",
    "SweepRow",
    "TraderSpec",
    "calibrate_c",
    "curve_distance",
    "derive_seed",
    "impact_distribution",
    "lifetime_sweep",
    "quantile_volumes",
    "run",
    "run_scenario",
    "scenario_from_config",
    "write_config",
    "__version__",
]
