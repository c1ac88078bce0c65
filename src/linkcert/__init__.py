"""linkcert: agglomerative linkage clustering with replayable guarantee
certificates, brute-force optimality oracles, and adversarial instances."""

from .metric_core import (
    Clustering,
    DistanceMatrix,
    PreconditionError,
    ResourceGuardError,
    StructuralError,
    cohesion,
    clustering_score,
    dump_instance,
    load_instance,
    tri_index,
    tri_size,
    validate_metric,
)
from .linkage_engine import (
    Dendrogram,
    MergeRecord,
    check_alignment,
    check_complete_linkage,
    extract_clustering,
    linkage_distance,
    run_linkage,
)
from .opt_oracles import (
    OracleResult,
    opt_dm_threshold,
    opt_score,
    opt_scores,
    stirling2,
)
from .family_certificates import Alg1Trace, alg1_bound, alg1_trace
from .graph_certificates import (
    Alg2Trace,
    alg2_bound,
    alg2_trace,
    fc_diameter_check,
    spanning_tree_check,
)
from .instance_lab import (
    AdversaryInstance,
    adversary_ratio_law,
    gen_random_euclidean,
    gen_random_metric,
    gen_single_link_adversary,
    load_target,
    write_adversary,
)
from .inequality_lab import (
    AlphaK,
    alpha_k,
    alpha_sup,
    check_ineq_2,
    check_ineq_avg,
    sample_ineq_2,
    sample_ineq_avg,
)

__version__ = "0.1.0"
