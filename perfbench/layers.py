"""The layers of fibrelab that the traced run measures, and the work
counts it reports for them.

A layer is one module of ``src/fibrelab``.  Each listed entry point is
wrapped from outside by :mod:`tracer`; a ``Class.method`` target is patched
on the class.  Per-element accessors (``compose``, ``hom``, ``dom``, ``cod``,
``ob``, ``mor``) are deliberately not wrapped: they run millions of times
and their cost already shows in the self time of their callers.

This module imports nothing from fibrelab, so the launcher can use it
before any engine code is loaded.
"""
from __future__ import annotations

import os

# layer -> [(metric name, attribute path in the module)]
LAYERS = {
    "fincat": [
        ("check", "FinCategory.check"),
        ("functor_check", "FinFunctor.check"),
        ("product", "product"),
        ("comma", "comma"),
        ("opposite", "opposite"),
        ("is_final", "is_final"),
    ],
    "finset": [
        ("colimit_set", "colimit_set"),
        ("limit_set", "limit_set"),
        ("mediate", "mediate"),
        ("is_bijection", "is_bijection"),
        ("diagram_check", "SetDiagram.check"),
    ],
    "kan": [
        ("lan", "lan"),
        ("ran", "ran"),
        ("joint_lan_factor", "joint_lan_factor"),
    ],
    "grothendieck": [
        ("groth_co", "groth_co"),
        ("groth_contra", "groth_contra"),
        ("guitart_hat", "guitart_hat"),
        ("guitart_check", "guitart_check"),
        ("diagram_check", "CatDiagram.check"),
    ],
    "fibrations": [
        ("search_cleavage", "search_cleavage"),
        ("verify_split_fibration", "verify_split_fibration"),
        ("verify_split_cofibration", "verify_split_cofibration"),
        ("reconstitute", "reconstitute"),
        ("bifibration_check", "bifibration_check"),
        ("lift_limit", "lift_limit"),
        ("enumerate_cones", "enumerate_cones"),
        ("terminal_cone", "terminal_cone"),
        ("enumerate_functors", "enumerate_functors"),
        ("free_cofibration", "free_cofibration"),
    ],
    "catcolim": [
        ("colimit_cat", "colimit_cat"),
        ("comparison_q", "comparison_q"),
        ("certify_cofinal_quotient", "certify_cofinal_quotient"),
    ],
    "diagcat": [
        ("colimit_in_diag", "colimit_in_diag"),
        ("strict_hom_bijection", "strict_hom_bijection"),
        ("enumerate_forward", "enumerate_forward"),
    ],
    "formulas": [
        ("check_cdf", "check_cdf"),
        ("check_general_cdf", "check_general_cdf"),
        ("check_limit_recomposition", "check_limit_recomposition"),
        ("check_fubini", "check_fubini"),
        ("check_tfcf", "check_tfcf"),
    ],
    "cli": [
        ("main", "main"),
        ("load_category", "load_category"),
        ("load_cat_diagram", "load_cat_diagram"),
        ("load_set_diagram", "load_set_diagram"),
    ],
}

# work counts taken at the layer boundaries (see tracer.COUNT_HOOKS),
# reported per pass
COUNTS = [
    "fincat.check.triples",
    "finset.limit_set.tuples",
    "finset.limit_set.apex",
    "finset.limit_set.refusals",
    "kan.ran.tuples",
    "kan.ran.families",
    "grothendieck.groth_co.total_morphisms",
    "fibrations.enumerate_functors.found",
    "fibrations.enumerate_cones.found",
    "catcolim.colimit_cat.morphism_classes",
    "catcolim.colimit_cat.discovered_words",
    "catcolim.colimit_cat.iterations",
    "catcolim.colimit_cat.refusals",
    "catcolim.colimit_cat.trace_len",
]

# useful outcomes over attempts: name -> (numerator, denominator)
RATIOS = {
    "finset.limit_set.useful_ratio": (
        "finset.limit_set.apex",
        "finset.limit_set.tuples",
    ),
    "kan.ran.useful_ratio": ("kan.ran.families", "kan.ran.tuples"),
    "catcolim.colimit_cat.useful_ratio": (
        "catcolim.colimit_cat.morphism_classes",
        "catcolim.colimit_cat.discovered_words",
    ),
}


def source_lines(root, layer):
    """Source lines of one layer module, as ``wc -l`` counts them."""
    with open(os.path.join(root, "src", "fibrelab", layer + ".py"), "rb") as fh:
        return fh.read().count(b"\n")
