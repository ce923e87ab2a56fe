"""Multi-agent least-squares policy iteration for graph-coupled LQR.

Exact per-agent Q-function decomposition from state/observation/cost
coupling graphs, restricted LSTDQ policy evaluation, structured policy
gradient updates, sample-complexity calculators, and an experiment harness.
"""
from .graphs import (
    CouplingGraphs,
    DependencySets,
    GraphValidationError,
    GraphicalConditionReport,
    build_coupling_graphs,
    dependency_sets,
    graphical_conditions,
    value_dependency_edges,
)
from .linalg import (
    InstabilityError,
    StabilityReport,
    lyapunov_solve,
    psd_project,
    smat,
    spectral_radius,
    stability_report,
    svec,
    svec_dim,
)
from .system import (
    ClosureError,
    CostEvaluation,
    EstimationSet,
    MultiAgentSystem,
    StructuredPolicy,
    Subsystem,
    TrajectoryBatch,
    average_cost,
    bellman_offset,
    bellman_residual,
    build_system,
    embed_quadratic,
    estimation_set,
    extract_subsystem,
    policy_from_global_gain,
    rollout,
    structured_policy_from_blocks,
    true_q_matrix,
    zero_policy,
)
from .lstdq import (
    LstdqOperator,
    RegressionBundle,
    SingularOperatorError,
    UnderdeterminedError,
    build_regression,
)
from .policy_iteration import (
    AgentDiagnostics,
    AgentPlan,
    Architecture,
    IterationRecord,
    MalspiConfig,
    architecture_plans,
    estimation_sets,
    policy_gradient_update,
    run_malspi,
)
from .bounds import (
    BoundInputs,
    DirectBoundReport,
    IndirectBoundReport,
    bound_inputs_from_subsystem,
    norm_proportional_weights,
    sample_bound_direct,
    sample_bound_indirect,
)
from .examples import (
    CostConfig,
    DynamicsConfig,
    build_cost_blocks,
    build_example_system,
    default_state_block,
    generate_example1,
    generate_example2,
)
from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .runner import (
    AgentRow,
    CurveRow,
    ResultTable,
    TimingRow,
    read_curves_csv,
    read_table,
    read_timing_csv,
    run_experiment,
    timing_benchmark,
    write_table,
)

__version__ = "0.1.0"
