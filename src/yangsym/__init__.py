"""Exact symmetric-function calculus for the generating matrix of the
Yangian of gl_n, with evaluation to U(gl_n) and shifted symmetric functions.

Importing the package loads none of its layers: each public name below is
imported from its module on first use (PEP 562), so `yangsym compute` pays
only for the layers its request needs.
"""

__version__ = "0.1.0"

# Each module and the public names it provides at the package level.
_EXPORTS = {
    "rationals": ("Q", "binomial"),
    "series": ("ShiftedPolynomial", "UPolynomial", "USeries", "factorial_power"),
    "tau": ("TauOperator",),
    "pbw": ("AlgebraContext", "AlgebraElement", "RewriteSystem", "free_context",
            "gl_context", "ugl_relations", "yangian_context", "yangian_relations"),
    "tensor": ("TensorMatrix", "antisymmetrizer", "b_factor", "fusion_step",
               "matrix_on_leg", "perm_op", "r_matrix", "symmetrizer", "t_leg", "tm_mul",
               "trace_full", "trace_of_product", "trace_partial", "trace_tm_mul"),
    "symfun": ("BetheTwist", "Composition", "Partition", "bethe_b", "composition_sum",
               "composition_weights", "compositions", "det_formulas", "e_tau", "elem_e",
               "gen_E", "gen_Hminus", "h_minus", "h_tau", "homog_h", "newton_check", "p_tau",
               "power_p", "prop_eB_traces", "rdet", "schur_s"),
    "capelli": ("HighestWeight", "capelli_p", "defining_rep_value", "ev_hom",
                "hw_eigenvalue", "pp_eigen_trEk", "shifted_e_star", "shifted_h_star",
                "shifted_p_star", "tr_E_power"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value
