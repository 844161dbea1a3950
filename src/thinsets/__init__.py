"""Exact finite-depth verifications over nested-lattice thin sets,
digit Cantor sets, and rationally independent Cantor trees."""

__version__ = "0.1.0"

from .chain import (ExactCount, Regime, ScaleChain, branching_count,
                    branching_lower_bound, build_custom_chain,
                    build_explicit_chain, classify_regime)
from .digit import (DigitSpec, dimension_zero_diagnostic, member_K,
                    separation_check, subset_sums, tau_bound,
                    verify_triple_sumset)
from .dimension import (GaugeParams, box_estimate, covering_number,
                        dimension_report, hs_cover_cost, packing_number,
                        product_bound)
from .dyadic import SparseDyadic
from .falconer import (LatticeInterval, TreePath, TripleSumFamily,
                       binary_tree_point, dichotomy_probe,
                       localization_check, localization_ratio_exponents,
                       member_depth, rapid_sequence, select_triple_indices,
                       verify_triple_sum)
from .independent import (CantorTree, RationalForm, build_independent_tree,
                          enumerate_forms, quadruple_scan, relation_scan)

__all__ = [
    "__version__",
    "ExactCount", "Regime", "ScaleChain", "branching_count",
    "branching_lower_bound", "build_custom_chain", "build_explicit_chain",
    "classify_regime",
    "DigitSpec", "dimension_zero_diagnostic", "member_K",
    "separation_check", "subset_sums", "tau_bound", "verify_triple_sumset",
    "GaugeParams", "box_estimate", "covering_number", "dimension_report",
    "hs_cover_cost", "packing_number", "product_bound",
    "SparseDyadic",
    "LatticeInterval", "TreePath", "TripleSumFamily", "binary_tree_point",
    "dichotomy_probe", "localization_check",
    "localization_ratio_exponents", "member_depth", "rapid_sequence",
    "select_triple_indices", "verify_triple_sum",
    "CantorTree", "RationalForm", "build_independent_tree",
    "enumerate_forms", "quadruple_scan", "relation_scan",
]
