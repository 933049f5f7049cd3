"""Analysis algorithms: order-independence, FSM, MRC, MGR, lower bounds."""

from .columnar import (
    ColumnarRules,
    candidate_subsets,
    pack_disjoint_masks,
    subset_bitmasks,
    subset_fail_table,
)
from .fsm import FSMResult, fsm, fsm_exact, fsm_greedy
from .lower_bounds import (
    hypercube_classifier,
    min_groups_hypercube,
    min_groups_single_field,
    min_groups_two_fields,
    pairs_classifier,
    quadruples_classifier,
)
from .mgr import (
    Group,
    GroupStatistics,
    MGRResult,
    beta_l_mrc,
    enforce_cache_property,
    group_statistics,
    independent_split,
    iset_partition,
    l_mgr,
    l_mgr_reference,
)
from .mrc import (
    MRCResult,
    edf_single_field,
    exact_independent_set_small,
    greedy_independent_set,
    l_mrc,
)
from .order_independence import (
    conflict_matrix,
    find_dependent_pair,
    is_order_independent,
    is_order_independent_pairwise,
    pair_separation_bitsets,
    rules_order_independent,
    separating_fields_matrix,
)
from .equivalence import BudgetExceeded, are_equivalent, find_difference
from .exact import exact_max_coverage, exact_min_groups
from .statistics import (
    ClassifierStatistics,
    FieldStatistics,
    classifier_statistics,
)
from .redundancy import (
    downward_redundant_rules,
    remove_redundant,
    shadowed_rules,
)
from .sweep import (
    conflict_pairs,
    estimate_overlap_counts,
    is_order_independent_sweep,
    overlapping_pairs,
)
from .setcover import (
    greedy_max_coverage,
    greedy_max_coverage_bits,
    greedy_set_cover,
    greedy_set_cover_bits,
)

__all__ = [
    "BudgetExceeded",
    "ClassifierStatistics",
    "ColumnarRules",
    "candidate_subsets",
    "pack_disjoint_masks",
    "subset_bitmasks",
    "subset_fail_table",
    "l_mgr_reference",
    "FSMResult",
    "FieldStatistics",
    "are_equivalent",
    "classifier_statistics",
    "find_difference",
    "Group",
    "GroupStatistics",
    "MGRResult",
    "MRCResult",
    "beta_l_mrc",
    "conflict_matrix",
    "conflict_pairs",
    "downward_redundant_rules",
    "edf_single_field",
    "independent_split",
    "iset_partition",
    "exact_max_coverage",
    "exact_min_groups",
    "remove_redundant",
    "shadowed_rules",
    "estimate_overlap_counts",
    "is_order_independent_sweep",
    "overlapping_pairs",
    "enforce_cache_property",
    "exact_independent_set_small",
    "find_dependent_pair",
    "fsm",
    "fsm_exact",
    "fsm_greedy",
    "greedy_independent_set",
    "greedy_max_coverage",
    "greedy_max_coverage_bits",
    "greedy_set_cover",
    "greedy_set_cover_bits",
    "group_statistics",
    "hypercube_classifier",
    "is_order_independent",
    "is_order_independent_pairwise",
    "l_mgr",
    "l_mrc",
    "min_groups_hypercube",
    "min_groups_single_field",
    "min_groups_two_fields",
    "pair_separation_bitsets",
    "pairs_classifier",
    "quadruples_classifier",
    "rules_order_independent",
    "separating_fields_matrix",
]
