"""feedlab: simulate and estimate attention dynamics on social feeds.

The package covers the full loop: ingest rated posts and feed impressions,
preprocess dwell times (motor-time adjustment via a hierarchical model),
analyze the post feature space (correlations, PCA, component scores), fit
dwell and engagement regressions, and drive a generative two-stage user
simulator with feed-ranking policy experiments and parameter-recovery
studies.
"""

from .data import (
    CATEGORIES,
    DataFormatError,
    FEATURE_NAMES,
    FeatureMatrix,
    Impressions,
    Post,
    RatingRecord,
    aggregate_ratings,
    dataset_violations,
    load_impressions,
    load_posts,
    load_ratings,
)
from .features import (
    CorrelationResult,
    PcaFit,
    correlate,
    fit_feature_pca,
    fit_pca,
    mean_dwell_by_post,
    project,
    standardize,
    top_posts,
)
from .pipeline import (
    ExclusionRules,
    MovementModel,
    PipelineAudit,
    PipelineResult,
    adjust_dwell,
    apply_exclusions_stage1,
    apply_floor,
    fit_movement_model,
    run_pipeline,
)
from .regression import (
    DesignSpec,
    RegressionFit,
    build_design,
    dwell_model_spec,
    engagement_model_spec,
    fit_logistic,
    fit_ols,
)
from .sim import (
    GenerativeParams,
    PolicyOutcome,
    PoolPosts,
    SimConfig,
    SyntheticPool,
    parameter_recovery,
    rank_feed,
    run_policy_experiment,
    simulate_session,
)

__version__ = "0.1.0"
