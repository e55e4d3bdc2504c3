"""Edge-formation-order reconstruction from a network snapshot.

The pipeline: handcrafted structural and steady-state edge features,
a trainable structure-state propagation coupling, a pairwise
precedence scorer, and a global order sorted by its scores, plus the
dynamics simulators, evaluation metrics, and theoretical error checks
that accompany it.
"""

__version__ = "0.1.0"

from .datasets import (
    SynthKind,
    SynthSpec,
    dataset_stats,
    generate_synthetic,
    load_edge_list,
    write_edge_list,
)
from .dynamics import (
    DynamicsKind,
    DynamicsSpec,
    SteadyState,
    load_steady_state,
    path_dependence_demo,
    relax_stages,
    sample_dynamics_params,
    simulate,
    step_dynamics,
    write_steady_state,
)
from .evaluation import (
    all_pairs_accuracy,
    binned_trend,
    degree_gini,
    evaluation_report,
    feature_time_correlation,
    growth_curve,
    hub_radar,
    make_eval_pairs,
    pairwise_accuracy,
    spearman_rho,
    trajectory_nrmse,
)
from .features import (
    FeatureMatrix,
    FeatureMode,
    combine,
    feature_subset,
    normalize,
    steady_state_edge_features,
    structural_edge_features,
)
from .graph import (
    TemporalNetwork,
    build_network,
    coreness,
    edge_betweenness,
    local_clustering,
    pagerank,
    prefix_graph,
)
from .ordering import (
    GlobalOrdering,
    ground_truth_ordering,
    load_ordering,
    monte_carlo_error,
    order_from_scores,
    theoretical_error,
    write_ordering,
)
from .ranker import (
    CpnnModel,
    TrainConfig,
    TrainInputs,
    init_cpnn,
    load_model,
    loss,
    make_pairs,
    predict_scores,
    prepare_inputs,
    save_model,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
