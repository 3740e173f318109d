"""Graph-structured Shapley attribution for black-box classifiers.

Exact Shapley values plus three graph-aware approximations (neighborhood-local
and connected-subset estimators, and a connected-subset regression), alongside
permutation sampling, kernel-weighted regression, and the Myerson value of
component-additive games.  A theory module machine-checks the estimators'
error bounds on dense discrete joints, and a harness measures masking curves
against black-box models.
"""

from .attribution import (
    AttributionResult,
    c_shapley,
    c_shapley_all,
    exact_shapley,
    l_shapley,
    l_shapley_all,
    myerson_value,
    sample_shapley,
)
from .errors import (
    BudgetExceededError,
    ConfigurationError,
    EvaluationError,
    ProtocolError,
    ShapgraphError,
    UnsupportedTopologyError,
    ZeroMassError,
)
from .graphs import (
    FeatureGraph,
    chain_graph,
    connected_subsets_containing,
    diameter,
    general_graph,
    graph_distance,
    grid_graph,
    k_neighborhood,
    members_of,
    subset_of,
)
from .harness import (
    EvaluationCurve,
    MethodSpec,
    compare_methods,
    curves_to_csv,
    log_odds_curve,
    mask_top_features,
)
from .models import (
    ExternalModelEndpoint,
    MarkovLabelModel,
    NaiveBayesModel,
    UniformModel,
    build_markov_model,
    external_model,
    load_model_json,
    markov_label_model,
    train_naive_bayes,
    two_topic_corpus,
)
from .regression import (
    kernelshap,
    regression_c_shapley,
    shapley_kernel_weight,
)
from .theory import (
    DiscreteJoint,
    EpsilonCertificate,
    ExactConditionalModel,
    absolute_mutual_information,
    epsilon_for_cshapley,
    epsilon_for_lshapley,
    lemma1_check,
    random_joint,
    verify_theorem1,
    verify_theorem2,
)
from .valuation import (
    Instance,
    ModelContract,
    SetFunction,
    TableGame,
    ValueFunction,
    additive_game,
    plugin_masked_instance,
    synthetic_game,
)

__version__ = "0.1.0"
