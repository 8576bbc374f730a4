"""One refusal rule for every public size: each size parameter (n, k, m, L
and the order N) of each public name is refused by `pbw.as_size` below its
bound or when it is not an int, before it reaches a family-cache key.

The walk below covers every name of `yangsym._EXPORTS` and the classmethods
of its classes; a new public name with a size parameter fails
`test_the_walk_covers_every_public_size` until it is listed."""

import inspect
import random
import re

import pytest

import yangsym
from yangsym import pbw, symfun
from yangsym.series import UPolynomial
from yangsym.symfun import BetheTwist, elem_e

SIZE_NAMES = {"n", "k", "m", "L", "N", "order"}
Y2 = pbw.yangian_context(2)

# Each public callable with the keyword arguments of one valid call and the
# least value of each of its size parameters.
CASES = {
    "USeries": ({"order": 2}, {"order": 0}),
    "USeries.const": ({"value": 1, "order": 2}, {"order": 0}),
    "USeries.zero": ({"order": 2}, {"order": 0}),
    "ShiftedPolynomial": ({"n": 2}, {"n": 1}),
    "ShiftedPolynomial.const": ({"n": 2, "q": 1}, {"n": 1}),
    "ShiftedPolynomial.linear": ({"n": 2, "mu_index": 1}, {"n": 1}),
    "factorial_power": ({"p": UPolynomial.variable(), "k": 2, "step": 1}, {"k": 0}),
    "AlgebraContext": ({"kind": "yangian", "n": 2}, {"n": 1}),
    "RewriteSystem": ({"kind": "gl", "n": 2}, {"n": 1}),
    "free_context": ({"n": 2}, {"n": 1}),
    "gl_context": ({"n": 2}, {"n": 1}),
    "yangian_context": ({"n": 2}, {"n": 1}),
    "TensorMatrix": ({"n": 2, "k": 1}, {"n": 1, "k": 0}),
    "TensorMatrix.identity": ({"n": 2, "k": 1}, {"n": 1, "k": 1}),
    "TensorMatrix.from_permutation": ({"sigma": (2, 1), "k": 2, "n": 2}, {"k": 1, "n": 1}),
    "antisymmetrizer": ({"k": 2, "n": 2}, {"k": 1, "n": 1}),
    "symmetrizer": ({"k": 2, "n": 2}, {"k": 1, "n": 1}),
    "b_factor": ({"l": 2, "sign": 1, "k": 2, "n": 2}, {"k": 1, "n": 1}),
    "perm_op": ({"l": 1, "m": 2, "k": 2, "n": 2}, {"k": 1, "n": 1}),
    "r_matrix": ({"l": 1, "m": 2, "c": 1, "k": 2, "n": 2}, {"k": 1, "n": 1}),
    "matrix_on_leg": ({"M": [[1, 0], [0, 1]], "s": 1, "k": 1, "zero": 0}, {"k": 1}),
    "t_leg": ({"s": 1, "a": 0, "k": 1, "N": 2, "ctx": Y2}, {"k": 1, "N": 0}),
    "BetheTwist.identity": ({"n": 2}, {"n": 1}),
    "BetheTwist.random": ({"n": 2, "rng": random.Random(1)}, {"n": 1}),
    "bethe_b": ({"k": 1, "Z": BetheTwist.identity(2), "n": 2, "N": 2},
                {"k": 1, "n": 1, "N": 0}),
    "composition_sum": ({"k": 2, "kind": "e", "n": 2, "N": 2}, {"k": 1, "n": 1, "N": 0}),
    "composition_weights": ({"k": 2, "kind": "h"}, {"k": 1}),
    "compositions": ({"k": 2}, {"k": 1}),
    "det_formulas": ({"m": 2, "which": "p_from_e", "n": 2, "N": 2}, {"m": 1, "n": 1, "N": 0}),
    "elem_e": ({"k": 2, "n": 2, "N": 2}, {"k": 0, "n": 1, "N": 0}),
    "homog_h": ({"k": 2, "n": 2, "N": 2}, {"k": 0, "n": 1, "N": 0}),
    "power_p": ({"k": 2, "sign": -1, "n": 2, "N": 2}, {"k": 1, "n": 1, "N": 0}),
    "p_tau": ({"k": 2, "sign": 1, "n": 2, "N": 2}, {"k": 1, "n": 1, "N": 0}),
    "tau_form": ({"kind": "h", "k": 2, "n": 2, "N": 2}, {"k": 0, "n": 1, "N": 0}),
    "h_minus": ({"m": 2, "n": 2, "N": 2}, {"m": 0, "n": 1, "N": 0}),
    "gen_E": ({"n": 2, "N": 2}, {"n": 1, "N": 0}),
    "gen_Hminus": ({"L": 1, "n": 2, "N": 2}, {"L": 0, "n": 1, "N": 0}),
    "newton_check": ({"m": 2, "kind": "e", "n": 2, "N": 2}, {"m": 1, "n": 1, "N": 0}),
    "prop_eB_traces": ({"k": 2, "variant": 1, "n": 2, "N": 2}, {"k": 1, "n": 1, "N": 0}),
    "schur_s": ({"lam": (1,), "via": "h", "n": 2, "N": 2}, {"n": 1, "N": 0}),
    "capelli_p": ({"m": 2, "n": 2}, {"m": 1, "n": 1}),
    "pp_eigen_trEk": ({"k": 2, "mu": (1, 0)}, {"k": 0}),
    "shifted_e_star": ({"k": 2, "n": 2}, {"k": 0, "n": 1}),
    "shifted_h_star": ({"k": 2, "n": 2}, {"k": 0, "n": 1}),
    "shifted_p_star": ({"k": 2, "mu": (1, 0)}, {"k": 1}),
    "tr_E_power": ({"k": 2, "n": 2}, {"k": 0, "n": 1}),
}

# Parameters named like a size that are not one.
NOT_SIZES = {
    ("binomial", "n"): "the arguments of a binomial coefficient, not sizes",
    ("binomial", "k"): "the arguments of a binomial coefficient, not sizes",
    ("perm_op", "m"): "a leg index, refused by the index check of perm_op",
    ("r_matrix", "m"): "a leg index, refused by the index check of perm_op",
}

# Values that are not plainly ints but that a size accepts, within its
# range, and why.
ACCEPTED = {True: "a bool counts as its int, as in Python's int arithmetic",
            False: "a bool counts as its int, as in Python's int arithmetic"}


def _public_callables():
    """Each public name, and each classmethod of a public class, by label."""
    out = {}
    for name in yangsym.__all__:
        obj = getattr(yangsym, name)
        out[name] = obj
        if inspect.isclass(obj) and obj.__module__.startswith("yangsym."):
            for attr, raw in vars(obj).items():
                if isinstance(raw, classmethod):
                    out[f"{name}.{attr}"] = getattr(obj, attr)
    return out


CALLABLES = _public_callables()


def _size_params(fn):
    try:
        params = inspect.signature(fn).parameters
    except ValueError:  # a builtin without a signature
        return []
    return [p for p in params if p in SIZE_NAMES]


def test_the_walk_covers_every_public_size():
    found = {(label, p) for label, fn in CALLABLES.items() for p in _size_params(fn)}
    listed = {(label, p) for label, (_, bounds) in CASES.items() for p in bounds}
    assert found == listed | set(NOT_SIZES)


def _bad_values(least):
    return ([0] if least == 1 else []) + [-1, 2.0, 2.5, "2"]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("label,param", sorted(
    (label, p) for label, (_, bounds) in CASES.items() for p in bounds))
def test_every_size_is_refused_by_one_rule(monkeypatch, label, param, warm):
    # an entry of a valid call in the family cache once served 2.0 as 2
    monkeypatch.setattr(symfun, "_CACHE", {})
    fn, (valid, bounds) = CALLABLES[label], CASES[label]
    if warm:
        fn(**valid)
    keys = set(symfun._CACHE)
    least, name = bounds[param], "order" if param == "N" else param
    for value in _bad_values(least):
        message = f"need {name} >= {least} and an int, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            fn(**{**valid, param: value})
        assert set(symfun._CACHE) == keys


def test_a_bool_size_is_its_int():
    for value in ACCEPTED:
        size = pbw.as_size(value, "k", 0)
        assert size == int(value) and type(size) is int
    assert elem_e(True, 2, 2) is elem_e(1, 2, 2) and elem_e(1, 2, True) is elem_e(1, 2, 1)
