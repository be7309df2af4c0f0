from fractions import Fraction

import pytest

from corelect.constraints import (
    CardinalityFamily,
    CoveringFamily,
    ExplicitFamily,
    MatroidOracleFamily,
    PackingFamily,
    PartitionMatroidFamily,
    basis_exchange_bijection,
    extend_to_basis,
    feasibility_of_masks,
    is_basis,
    is_feasible,
    is_q_completable,
    verify_matroid_axioms,
)
from corelect.errors import CannotCompleteError, MatroidAxiomViolation, NotABasisError, members
from corelect.instances import gen_rest1, rng_from_seed
from corelect.model import _layers

from oracles import oracle_q_completable


def test_cardinality_feasibility():
    P = CardinalityFamily(3)
    assert is_feasible(P, {0, 1, 2})
    assert not is_feasible(P, {0, 1, 2, 3})


def test_rest1_group_plus_dummies_feasible():
    inst = gen_rest1(2)
    block = inst.meta["blocks"][1]
    dummies = sorted(inst.meta["dummies"])[:2]
    assert is_feasible(inst.feasibility, block | set(dummies))


def test_packing_row_cap():
    P = PackingFamily([({1, 2}, 1)], 3)
    assert not is_feasible(P, {1, 2})
    assert is_feasible(P, {1, 3})


def test_covering_row():
    P = CoveringFamily([({0, 1}, 1)], 2)
    assert is_feasible(P, {0})
    assert not is_feasible(P, {2})


def test_q_completable_trivial_empty():
    P = ExplicitFamily([[3], [0, 1]], 2)
    ok, witness = is_q_completable(P, frozenset(), 1, universe=[0, 1, 2, 3])
    assert ok and witness == frozenset({3})


def test_q_completable_impossible_covering():
    # needs two members from a one-element set: no committee qualifies
    P = CoveringFamily([({0}, 2)], 3)
    for hatW in (frozenset(), frozenset({0}), frozenset({1})):
        ok, _ = is_q_completable(P, hatW, 3, universe=[0, 1, 2])
        assert not ok


def test_q_completable_downward_closed_short_circuit():
    P = PartitionMatroidFamily([[0, 1]], [1], 2)
    ok, witness = is_q_completable(P, {0}, 0, universe=[0, 1, 2])
    assert ok and witness == frozenset()
    ok, _ = is_q_completable(P, {0, 1}, 5, universe=[0, 1, 2])
    assert not ok


def test_q_completable_matches_oracle():
    for seed in range(60):
        rng = rng_from_seed(seed)
        kind = seed % 3
        if kind == 0:
            P = ExplicitFamily(
                [
                    [int(c) for c in rng.permutation(5)[: rng.integers(0, 4)]]
                    for _ in range(4)
                ],
                3,
            )
        elif kind == 1:
            P = CoveringFamily([([0, 1], 1), ([2, 3], int(rng.integers(0, 3)))], 3)
        else:
            P = PackingFamily([([0, 1, 2], 2)], 3)
        for q in range(3):
            hatW = frozenset(int(c) for c in rng.permutation(5)[: rng.integers(0, 3)])
            mine, witness = is_q_completable(P, hatW, q, universe=range(5))
            assert mine == oracle_q_completable(P, hatW, q, range(5))
            if mine:
                assert len(witness) <= q
                assert P.contains(hatW | witness)


def test_q_completable_monotone_in_q():
    P = CoveringFamily([([0, 1, 2], 2)], 4)
    results = [is_q_completable(P, frozenset(), q, universe=range(5))[0] for q in range(5)]
    for lo, hi in zip(results, results[1:]):
        assert not lo or hi


def test_subsets_of_member_are_completable():
    rng = rng_from_seed(11)
    for _ in range(40):
        size = int(rng.integers(1, 5))
        member = frozenset(int(c) for c in rng.permutation(6)[:size])
        P = ExplicitFamily([member], size)
        for sub_size in range(size + 1):
            hatW = frozenset(sorted(member)[:sub_size])
            ok, _ = is_q_completable(P, hatW, size - sub_size, universe=range(6))
            assert ok


def test_feasible_committee_subsets_completable_across_kinds():
    # for any feasible W and any split W = hatW + rest, hatW is
    # |rest|-completable with witness at most rest
    from corelect.instances import random_instance
    from corelect.solvers import solve_global
    from corelect.errors import InfeasibleInstanceError
    import itertools

    for seed in range(40):
        inst = random_instance(seed + 7000, n_max=3, m_max=6, k_max=3)
        try:
            W = solve_global(inst, "snw").committee.members
        except InfeasibleInstanceError:
            continue
        for sub_size in range(len(W) + 1):
            for hatW in itertools.combinations(sorted(W), sub_size):
                hatW = frozenset(hatW)
                ok, _ = is_q_completable(
                    inst.feasibility, hatW, len(W) - sub_size, universe=inst.candidates
                )
                assert ok


def test_bijection_identical_bases_is_empty():
    P = CardinalityFamily(2)
    assert basis_exchange_bijection(P, {0, 1}, {0, 1}, [0, 1, 2]) == {}


def test_bijection_free_matroid_any_pairing():
    P = CardinalityFamily(2)
    f = basis_exchange_bijection(P, {0, 1}, {2, 3}, [0, 1, 2, 3])
    assert sorted(f.keys()) == [0, 1]
    assert sorted(f.values()) == [2, 3]
    for e, fe in f.items():
        assert P.independent((frozenset({0, 1}) - {e}) | {fe})


def test_bijection_partition_matroid_respects_groups():
    P = PartitionMatroidFamily([[0, 1], [2, 3]], [1, 1], 2)
    f = basis_exchange_bijection(P, {0, 2}, {1, 3}, [0, 1, 2, 3])
    assert f == {0: 1, 2: 3}


def test_bijection_rejects_non_basis():
    P = CardinalityFamily(2)
    with pytest.raises(NotABasisError):
        basis_exchange_bijection(P, {0}, {1, 2}, [0, 1, 2])


def test_bijection_property_on_random_partitions():
    for seed in range(25):
        rng = rng_from_seed(100 + seed)
        groups = [[0, 1, 2], [3, 4], [5, 6]]
        caps = [int(rng.integers(1, 3)), 1, int(rng.integers(1, 3))]
        k = min(6, sum(caps))
        P = PartitionMatroidFamily(groups, caps, k)
        universe = range(7)
        W1 = extend_to_basis(P, frozenset(), universe, universe)
        perm = [int(c) for c in rng.permutation(7)]
        W2 = set()
        for c in perm:
            if P.independent(W2 | {c}):
                W2.add(c)
        W2 = frozenset(W2)
        f = basis_exchange_bijection(P, W1, W2, universe)
        assert set(f.keys()) == set(W1 - W2)
        assert set(f.values()) == set(W2 - W1)
        for e, fe in f.items():
            assert P.independent((W1 - {e}) | {fe})


def test_extend_to_basis_examples():
    P = CardinalityFamily(3)
    assert extend_to_basis(P, {0, 1, 2}, [3, 4], [0, 1, 2, 3, 4]) == {0, 1, 2}
    assert extend_to_basis(P, {1}, [2, 3, 4], [1, 2, 3, 4]) == {1, 2, 3}


def test_extend_to_basis_respects_groups():
    P = PartitionMatroidFamily([[0, 1], [2, 3]], [1, 1], 2)
    basis = extend_to_basis(P, {0}, [1, 2, 3], [0, 1, 2, 3])
    assert 0 in basis and len(basis & {2, 3}) == 1
    assert is_basis(P, basis, [0, 1, 2, 3])


def test_extend_to_basis_cannot_complete():
    P = PartitionMatroidFamily([[0, 1], [2, 3]], [1, 1], 2)
    with pytest.raises(CannotCompleteError):
        extend_to_basis(P, {0}, [1], [0, 1, 2, 3])


def test_verify_matroid_axioms_accepts_partitions():
    P = PartitionMatroidFamily([[0, 1, 2], [3, 4]], [2, 1], 3)
    ok, _ = verify_matroid_axioms(P, range(5))
    assert ok


def test_verify_matroid_axioms_catches_liar():
    # "independent iff size != 1" violates downward closure
    P = MatroidOracleFamily(lambda T: len(T) != 1, 2)
    P.bind(range(4))
    ok, witness = verify_matroid_axioms(P, range(4))
    assert not ok and witness
    with pytest.raises(MatroidAxiomViolation):
        P.ensure_verified()


def test_matroid_oracle_verified_then_usable():
    P = MatroidOracleFamily(lambda T: len(T & frozenset({0, 1})) <= 1, 2)
    P.bind(range(4))
    P.ensure_verified()
    assert is_basis(P, {0, 2}, range(4))


def test_explicit_family_dedup_and_query():
    P = ExplicitFamily([[0, 1], [1, 0], [2]], 2)
    assert len(P.sets) == 2
    assert is_feasible(P, {0, 1})
    assert not is_feasible(P, {0, 2})


class _NoFirst(PackingFamily):
    """A packing family that also refuses candidate 0, by overriding ``contains``."""

    def contains(self, T):
        return 0 not in T and super().contains(T)


def _families(m, k):
    """A family of each kind over range(m), with rows that reach past bit 63
    when m does."""
    last = m - 1
    return {
        "cardinality": CardinalityFamily(k),
        "partition": PartitionMatroidFamily([{0, 1, last}, {2, 3}], [1, 0], k),
        "packing": PackingFamily([({0, 1, 2, last}, 2), ({1, last - 1}, 1)], k),
        "covering floor 0": CoveringFamily([({0, 1}, 0)], k),
        "covering": CoveringFamily([({0, last}, 1)], k),
        "covering floor above k": CoveringFamily([(range(m), k + 1)], k),
        "covering, k past int64": CoveringFamily([({0, last}, 1)], 1 << 70),
        "explicit": ExplicitFamily([(), {0}, {1, last}, {0, 2, 3}, range(k + 1)], k),
        "matroid oracle": MatroidOracleFamily(lambda T: len(T & {0, 1, last}) <= 1, k),
        "overrides contains": _NoFirst([({1, last}, 1)], k),
    }


# int64 masks with every layer; Python-int masks up to one size past k
@pytest.mark.parametrize("m, k, top", [(8, 3, None), (66, 2, 3)])
@pytest.mark.parametrize("name", list(_families(8, 3)))
def test_the_mask_test_agrees_with_contains(name, m, k, top):
    P = _families(m, k)[name]
    universe = tuple(range(m))
    feasible = feasibility_of_masks(P, universe)
    for layer in _layers(m, top):
        got = feasible(layer)
        assert got.dtype == bool
        assert got.tolist() == [P.contains(members(universe, x)) for x in layer.tolist()]
