"""Quantum clock powered by the steady state of a quenched spin chain.

The package follows the pipeline of the underlying physics: quench a
chain (:mod:`quenchclock.spectra`), read off golden-rule rates of an
attached probe (:mod:`quenchclock.rates`), run a ladder clock on the
rate imbalance (:mod:`quenchclock.clock`), and read off how long the
chain powers it (:mod:`quenchclock.battery`).  :mod:`quenchclock.oracle`
checks the closed forms against brute-force finite-size sums, and
:mod:`quenchclock.cli` wires everything into a command line.
"""

from .battery import LifetimeReport, lifetime
from .config import (
    AxisSpec,
    CouplingConfig,
    LadderConfig,
    McConfig,
    ModelConfig,
    OracleConfig,
    OutputConfig,
    RunConfig,
    apply_overrides,
    emit_config,
    load_config,
    parse_config,
)
from .clock import (
    ClockMetrics,
    FirstPassage,
    LadderRates,
    LadderSpec,
    MasterTrajectory,
    TickStatistics,
    clock_metrics,
    evolve_master,
    ladder_rates,
    resolve_gamma,
    sample_tick_times,
    simulate_ticks,
    solve_first_passage,
)
from .errors import (
    BadBroadening,
    ConfigError,
    DegenerateRoot,
    GaplessMode,
    NoResonance,
    NotReachable,
    PassiveState,
    QuenchClockError,
    TooLarge,
    ZeroRates,
)
from .oracle import (
    ConvergenceRow,
    OracleReport,
    dense_ed_correlator,
    discrete_rates,
)
from .scan import (
    Table,
    grid_points,
    oracle_table,
    render_table,
    row_seed,
    run_scan,
    write_csv,
    write_json,
)
from .rates import (
    BiasCondition,
    QubitCoupling,
    Rates,
    RootContribution,
    SYMMETRY_FACTOR,
    bias_condition,
    transition_rates,
)
from .spectra import (
    EnergyRoot,
    ModeState,
    ModelKind,
    ModelSpec,
    QuenchSpec,
    band_edges,
    dispersion,
    energy_roots,
    group_velocity,
    mode_state,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
