"""Agent-based double-auction order book market simulator.

Reproduces gap-driven heavy-tailed return distributions: traders with
random actions place limit orders around the best prices; finite order
lifetimes thin out the book, gaps form between occupied price levels,
and large price shifts follow. Submodules: orderbook (matching engine
and depth snapshots), agents (trader draw rules), simulator (event
loop, calibration), stats (returns, kurtosis, distributions), impact
(virtual market impact curves), experiments (seed fan-out, sweeps,
CSV emission), cli.
"""

from .agents import OrderIntent, TraderKind, TraderSpec, TraderState
from .impact import ImpactCurve, curve_distance, impact_distribution, quantile_volumes
from .orderbook import (
    BookSnapshot,
    Order,
    OrderBook,
    OrderRejected,
    Side,
    Trade,
    price_to_tick,
    tick_to_price,
)
from .simulator import SimConfig, SimOutput, calibrate_c, derive_seed, run
from .experiments import (
    Scenario,
    ScenarioResult,
    SweepResult,
    SweepRow,
    bigtrader_scenario,
    lifetime_sweep,
    run_scenario,
    scenario_from_config,
    write_config,
)

__version__ = "0.1.0"

__all__ = [
    "BookSnapshot",
    "ImpactCurve",
    "Order",
    "OrderBook",
    "OrderIntent",
    "OrderRejected",
    "Scenario",
    "ScenarioResult",
    "Side",
    "SimConfig",
    "SimOutput",
    "SweepResult",
    "SweepRow",
    "Trade",
    "TraderKind",
    "TraderSpec",
    "TraderState",
    "bigtrader_scenario",
    "calibrate_c",
    "curve_distance",
    "derive_seed",
    "impact_distribution",
    "lifetime_sweep",
    "price_to_tick",
    "quantile_volumes",
    "run",
    "run_scenario",
    "scenario_from_config",
    "tick_to_price",
    "write_config",
    "__version__",
]
