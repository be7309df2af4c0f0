import math
import tracemalloc
from fractions import Fraction

import pytest

from corelect import scoring
from corelect.errors import RuleMismatchError
from corelect.exactnum import Quad
from corelect.instances import gen_lb00, random_instance
from corelect.model import AdditiveUtility, ApprovalUtility, Instance, TableUtility
from corelect.scoring import (
    Score,
    delta_star,
    harmonic,
    marginal_add,
    marginal_remove,
    phi,
    score,
)

from oracles import _all_subsets, _naive_harmonic, oracle_score


def _single(u, m=4, k=None):
    cands = list(range(m))
    return Instance(cands, [u], k=k if k is not None else m, validate="trust")


def test_harmonic_values():
    assert harmonic(0) == 0
    assert harmonic(3) == Fraction(11, 6)


def test_harmonic_of_a_large_utility_needs_no_deep_recursion():
    assert harmonic(5000) == _naive_harmonic(5000)


def _cleared_harmonic_cache():
    del scoring._HARMONIC[1:]
    del scoring._CHECKPOINTS[1:]


def test_harmonic_of_twenty_thousand_holds_little_memory():
    _cleared_harmonic_cache()
    tracemalloc.start()
    try:
        harmonic(20000)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 2 << 20


def test_harmonic_matches_the_naive_sum_on_each_side_of_every_checkpoint():
    step = scoring._STEP
    points = sorted({x for j in range(1, 5) for x in (j * step - 1, j * step, j * step + 1)})
    # from a cleared cache, highest first, then lowest first
    for order in (points[::-1], points):
        _cleared_harmonic_cache()
        for x in order:
            assert harmonic(x) == _naive_harmonic(x), x


def test_scoring_refuses_unknown_candidates():
    inst = _single(ApprovalUtility([0, 1]))
    refused = r"^unknown candidates \[99\]$"
    with pytest.raises(ValueError, match=refused):
        score("snw", inst, [0, 99])
    with pytest.raises(ValueError, match=refused):
        marginal_add("snw", inst, [0], 99)
    with pytest.raises(ValueError, match=refused):
        marginal_remove("snw", inst, [0, 99], 0)


def test_phi_interpolation():
    assert phi(Fraction(0)) == 0
    assert phi(Fraction(5, 2)) == Fraction(5, 3)  # H(2) + (1/2)/3
    assert phi(Fraction(3)) == harmonic(3)
    assert phi(Fraction(1, 2)) == Fraction(1, 2)


def test_pav_score_single_voter():
    inst = _single(ApprovalUtility([0, 1, 2]))
    assert score("pav", inst, {0, 1, 2}).value == Fraction(11, 6)


def test_pav_rejects_fractional_utilities():
    inst = _single(AdditiveUtility({0: Fraction(1, 2)}))
    with pytest.raises(RuleMismatchError):
        score("pav", inst, {0})


def test_snw_comparable_is_product():
    inst = Instance(
        [0, 1],
        [AdditiveUtility({0: 1}), AdditiveUtility({0: 1, 1: 1})],
        k=2,
        validate="trust",
    )
    assert score("snw", inst, {0, 1}).value == 6  # (1+1)(1+2)


def test_snw_ln_float_beyond_float_range():
    big = Score("snw", Fraction(3) ** 700 / 2**5)
    assert big.ln_float() == pytest.approx(700 * math.log(3) - 5 * math.log(2))
    assert round(big.ln_float(), 4) == 765.5629
    small = Score("snw", Fraction(7, 3))
    assert small.ln_float() == math.log(float(Fraction(7, 3)))


def test_gpav_score_half_integer():
    inst = _single(AdditiveUtility({0: 1, 1: 1, 2: Fraction(1, 2)}))
    assert score("gpav", inst, {0, 1, 2}).value == Fraction(5, 3)


def test_score_comparison_same_rule_only():
    a = Score("pav", Fraction(1))
    b = Score("snw", Fraction(2))
    with pytest.raises(RuleMismatchError):
        _ = a < b


def test_marginal_add_pav_approval():
    # adding an approved candidate bumps a voter by 1/(u+1)
    inst = _single(ApprovalUtility([0, 1, 2]))
    m = marginal_add("pav", inst, {0, 1}, 2)
    assert m.per_voter[0] == Fraction(1, 3)
    m0 = marginal_add("pav", inst, {0, 1}, 3)
    assert m0.per_voter[0] == 0


def test_marginal_add_gpav_fractional():
    inst = _single(AdditiveUtility({0: 1, 1: 1, 2: Fraction(1, 2)}))
    m = marginal_add("gpav", inst, {0, 1}, 2)
    assert m.per_voter[0] == Fraction(1, 6)  # (1/2)/3


def test_marginal_snw_ratio():
    inst = _single(AdditiveUtility({0: 1, 1: 1}))
    m = marginal_add("snw", inst, {0}, 1)
    assert m.per_voter[0] == Fraction(3, 2)  # (1+2)/(1+1)
    assert m.total == Fraction(3, 2)


def test_marginal_remove_is_inverse_of_add():
    inst = _single(AdditiveUtility({0: Fraction(1, 2), 1: Fraction(3, 4)}))
    add = marginal_add("gpav", inst, {0}, 1)
    rem = marginal_remove("gpav", inst, {0, 1}, 1)
    assert add.total == rem.total


def test_marginal_membership_errors():
    inst = _single(ApprovalUtility([0]))
    with pytest.raises(ValueError):
        marginal_add("pav", inst, {0}, 0)
    with pytest.raises(ValueError):
        marginal_remove("pav", inst, {0}, 1)


def test_delta_star_examples():
    inst = Instance(
        [0, 1],
        [AdditiveUtility({0: 1, 1: 1}), AdditiveUtility({0: 1, 1: 1, 2: 1, 3: 1})],
        k=4,
        validate="trust",
    )
    # zero-weight candidate contributes nothing
    assert delta_star(inst, {0}, 2, [0]) == 0
    # single voter at u(W)=0 with weight-1 candidate gives exactly 1
    assert delta_star(inst, frozenset(), 0, [0]) == 1
    # two voters at u(W) = (1, 3): 1/2 + 1/4
    W = {0, 1, 2, 3}
    inst2 = Instance(
        [0, 1, 2, 3, 4],
        [
            AdditiveUtility({0: 1, 4: 1}),
            AdditiveUtility({0: 1, 1: 1, 2: 1, 4: 1}),
        ],
        k=5,
        validate="trust",
    )
    assert delta_star(inst2, {0, 1, 2}, 4, [0, 1]) == Fraction(3, 4)


def test_delta_star_requires_additive():
    inst = _single(ApprovalUtility([0]))
    with pytest.raises(RuleMismatchError):
        delta_star(inst, set(), 0, [0])


# -- score against the naive oracle, on every oracle kind --


def _outcome(fn):
    try:
        return fn()
    except RuleMismatchError:
        return "mismatch"


def _assert_score_matches_oracle(inst, rational=True):
    for W in _all_subsets(inst.candidates):
        for rule in ("pav", "snw", "gpav"):
            mine = _outcome(lambda: score(rule, inst, W).value)
            assert mine == _outcome(lambda: oracle_score(rule, inst, W)), (rule, sorted(W))
            if rational and mine != "mismatch":
                assert type(mine) is Fraction


@pytest.mark.parametrize("kind", ["approval", "additive", "coverage", "xos"])
def test_score_matches_oracle_on_random_instances(kind):
    for seed in range(6):
        inst = random_instance(seed, n_max=4, m_max=5, k_max=3, utility_kinds=(kind,))
        _assert_score_matches_oracle(inst)


def test_score_matches_oracle_on_a_mixed_denominator_table():
    # the table's scale is lcm(3, 2, 5, 6, 10, 4, 7) = 420; two entries are
    # integers, so pav scores some committees and refuses others
    entries = {
        (0,): Fraction(1, 3),
        (1,): Fraction(1, 2),
        (2,): 1,
        (0, 1): Fraction(5, 6),
        (0, 2): Fraction(7, 10),
        (1, 2): Fraction(5, 4),
        (0, 1, 2): 2 + Fraction(1, 7),
    }
    u = TableUtility(entries)
    assert u.scale == 420
    inst = Instance([0, 1, 2], [u, ApprovalUtility([0, 2])], k=3, validate="trust")
    _assert_score_matches_oracle(inst)
    assert score("pav", inst, {2}).value == 2
    with pytest.raises(RuleMismatchError):
        score("pav", inst, {0})


@pytest.mark.parametrize("beta", [5, 6])
def test_score_matches_oracle_on_lb00(beta):
    # odd beta gives Quad values, so this is the exact Fraction/Quad path
    inst = gen_lb00(beta, 1)
    _assert_score_matches_oracle(inst, rational=False)
    if beta % 2:
        assert isinstance(score("snw", inst, {0, 3}).value, Quad)


def test_pav_refuses_a_fractional_additive_voter():
    inst = Instance(
        [0, 1],
        [ApprovalUtility([0, 1]), AdditiveUtility({0: 1, 1: Fraction(1, 2)})],
        k=2,
        validate="trust",
    )
    assert score("pav", inst, {0}).value == Fraction(2)
    with pytest.raises(RuleMismatchError):
        score("pav", inst, {1})
    assert score("gpav", inst, {0, 1}).value == Fraction(3, 2) + 1 + Fraction(1, 4)
