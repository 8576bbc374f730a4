"""Exact symmetric-function calculus for the generating matrix of the
Yangian of gl_n, with evaluation to U(gl_n) and shifted symmetric functions.
"""

from .rationals import Q, binomial
from .series import (
    ShiftedPolynomial,
    UPolynomial,
    USeries,
    falling_factorial,
    rising_factorial,
)
from .tau import TauOperator
from .pbw import (
    AlgebraContext,
    AlgebraElement,
    RewriteSystem,
    free_context,
    gl_context,
    ugl_relations,
    yangian_context,
    yangian_relations,
)
from .tensor import (
    TensorMatrix,
    antisymmetrizer,
    b_factor,
    fusion_step,
    matrix_on_leg,
    perm_op,
    r_matrix,
    symmetrizer,
    t_leg,
    tm_mul,
    trace_full,
    trace_of_product,
    trace_partial,
)
from .symfun import (
    BetheTwist,
    Composition,
    Partition,
    bethe_b,
    composition_sum,
    compositions,
    det_formulas,
    e_tau,
    elem_e,
    gen_E,
    gen_Hminus,
    h_minus,
    h_tau,
    homog_h,
    newton_check,
    p_tau,
    power_p,
    prop_eB_traces,
    rdet,
    schur_s,
)
from .capelli import (
    HighestWeight,
    capelli_p,
    defining_rep_value,
    ev_hom,
    hw_eigenvalue,
    pp_eigen_trEk,
    shifted_e_star,
    shifted_h_star,
    shifted_p_star,
    tr_E_power,
)

__version__ = "0.1.0"
