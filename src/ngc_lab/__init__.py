"""ngc-lab: a desk-scale laboratory for noisy gap cycle counting.

Builds layered hard instances for cycle-counting problems, partitions and
streams their edges under several adversary models, runs reductions between
one-way protocols and streaming algorithms, and measures the structural and
probabilistic claims behind the construction.

The curated surface below covers the instance samplers, edge-partition
models, streaming algorithms, protocol adapters, and the experiment suites
driven by the ``ngc-lab`` command line tool.  The helpers they are built
from live in their home modules (``ngc_lab.gadgets``, ``ngc_lab.stats``,
...).
"""

from .bias import (
    SupportSet,
    bias,
    kkl_rhs,
    mean_bias_sq,
    product_bias_check,
    valid_subset_prob,
)
from .distributions import (
    Census,
    NgcInstance,
    Witness,
    census_of_edges,
    mst_augment,
    pad_to_k,
    sample_dhx,
    sample_dhx_segment,
    sample_hybrid,
    sample_ngc,
    sample_ngc_batched,
    uniform_witness,
    validate_instance,
)
from .experiments import (
    SuiteResult,
    adapter_suite,
    bias_scan_suite,
    bob_only_suite,
    census_suite,
    combinatorial_suite,
    estimator_budget_curve,
    estimator_suite,
    l_player_suite,
    mst_suite,
    partition_stats_suite,
    reduce_check_suite,
    stochastic_stats_suite,
    stream_run_suite,
    walk_cover_suite,
)
from .instance_io import parse_instance, serialize_instance
from .partitions import (
    EdgeAssignment,
    active_blocks,
    assign_batches,
    assign_by_functions,
    assign_uniform,
    clean_indices,
    clean_indices_stochastic,
    index_ownership_pattern,
    random_partition_functions,
    stochastic_assign,
)
from .protocols import (
    BobOnlyCycleDetector,
    LPlayerStreamingProtocol,
    OneWayProtocol,
    StreamingProtocol,
    embed_dhx,
    embed_dhx_batched,
    run_protocol,
)
from .seeds import Seed, as_seed, master_seed
from .streaming import (
    CensusThetaDecision,
    UnionFindCensusAlgorithm,
    cc_estimate,
    exact_census,
    make_stream,
    matching_size_exact,
    mis_size_exact,
    mst_weight_exact,
    stream_from_edges,
)

__version__ = "0.1.0"

__all__ = [
    "BobOnlyCycleDetector",
    "Census",
    "CensusThetaDecision",
    "EdgeAssignment",
    "LPlayerStreamingProtocol",
    "NgcInstance",
    "OneWayProtocol",
    "Seed",
    "StreamingProtocol",
    "SuiteResult",
    "SupportSet",
    "UnionFindCensusAlgorithm",
    "Witness",
    "active_blocks",
    "adapter_suite",
    "as_seed",
    "assign_batches",
    "assign_by_functions",
    "assign_uniform",
    "bias",
    "bias_scan_suite",
    "bob_only_suite",
    "cc_estimate",
    "census_of_edges",
    "census_suite",
    "clean_indices",
    "clean_indices_stochastic",
    "combinatorial_suite",
    "embed_dhx",
    "embed_dhx_batched",
    "estimator_budget_curve",
    "estimator_suite",
    "exact_census",
    "index_ownership_pattern",
    "kkl_rhs",
    "l_player_suite",
    "make_stream",
    "master_seed",
    "matching_size_exact",
    "mean_bias_sq",
    "mis_size_exact",
    "mst_augment",
    "mst_suite",
    "mst_weight_exact",
    "pad_to_k",
    "parse_instance",
    "partition_stats_suite",
    "product_bias_check",
    "random_partition_functions",
    "reduce_check_suite",
    "run_protocol",
    "sample_dhx",
    "sample_dhx_segment",
    "sample_hybrid",
    "sample_ngc",
    "sample_ngc_batched",
    "serialize_instance",
    "stochastic_assign",
    "stochastic_stats_suite",
    "stream_from_edges",
    "stream_run_suite",
    "uniform_witness",
    "valid_subset_prob",
    "validate_instance",
    "walk_cover_suite",
]
