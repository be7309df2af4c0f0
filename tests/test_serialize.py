import inspect
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corelect.instances import gen_lb00, gen_rest1, random_instance, random_utility, rng_from_seed
from corelect.model import (
    AdditiveUtility,
    ApprovalUtility,
    CoverageUtility,
    Instance,
    LB00Utility,
    TableUtility,
    XOSUtility,
)
from corelect.constraints import CoveringFamily, PackingFamily
from corelect.errors import subsets
from corelect.serialize import (
    UTILITY_KINDS,
    FormatError,
    dumps_canonical,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
    utility_from_json,
)


def _round_trip(inst):
    blob = dumps_canonical(instance_to_json(inst))
    again = instance_from_json(json.loads(blob))
    blob2 = dumps_canonical(instance_to_json(again))
    assert blob == blob2
    return again


def test_round_trip_every_utility_kind():
    utilities = [
        ApprovalUtility([0, 2]),
        AdditiveUtility({0: Fraction(1, 3), 1: 1}),
        CoverageUtility({0: [0], 1: [0, 1]}, {0: Fraction(1, 2), 1: Fraction(1, 4)}),
        XOSUtility([{0: Fraction(1, 2)}, {1: 1, 2: Fraction(1, 8)}]),
        TableUtility({frozenset({0}): Fraction(2, 7), frozenset({0, 1}): 1}),
    ]
    inst = Instance([0, 1, 2], utilities, k=2, validate="trust")
    again = _round_trip(inst)
    assert again.utilities == inst.utilities


def test_round_trip_constraint_kinds():
    inst = gen_rest1(2)
    _round_trip(inst)
    packing = Instance(
        [0, 1, 2],
        [ApprovalUtility([0])],
        k=2,
        feasibility=PackingFamily([((0, 1), 1)], 2),
        validate="trust",
    )
    _round_trip(packing)
    covering = Instance(
        [0, 1, 2],
        [ApprovalUtility([0])],
        k=2,
        feasibility=CoveringFamily([((0, 1), 1)], 2),
        validate="trust",
    )
    _round_trip(covering)


def test_round_trip_budget_mode_rationals():
    inst = Instance(
        [0, 1],
        [AdditiveUtility({0: Fraction(2, 3)})],
        sizes={0: Fraction(3, 2), 1: 1},
        budget=Fraction(5, 2),
        validate="trust",
    )
    again = _round_trip(inst)
    assert again.sizes[0] == Fraction(3, 2)
    assert again.budget == Fraction(5, 2)


def test_round_trip_lb00_quadratic_parameters():
    inst = gen_lb00(5, 2)
    again = _round_trip(inst)
    assert again.utilities[0].beta == 5


def test_file_round_trip(tmp_path):
    inst = random_instance(77)
    path = tmp_path / "instance.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert instance_to_json(again) == instance_to_json(inst)


def test_missing_mode_is_format_error():
    with pytest.raises(FormatError):
        instance_from_json({"n": 1, "candidates": [0], "utilities": [{"kind": "approval", "approved": []}]})


def test_both_modes_is_format_error():
    obj = {
        "n": 1,
        "candidates": [0],
        "utilities": [{"kind": "approval", "approved": []}],
        "k": 1,
        "sizes": [[0, 1]],
        "budget": 1,
    }
    with pytest.raises(FormatError):
        instance_from_json(obj)


def test_wrong_n_is_format_error():
    obj = {
        "n": 2,
        "candidates": [0],
        "utilities": [{"kind": "approval", "approved": []}],
        "k": 1,
    }
    with pytest.raises(FormatError):
        instance_from_json(obj)


def test_unknown_kinds_are_format_errors():
    base = {"n": 1, "candidates": [0], "k": 1}
    with pytest.raises(FormatError):
        instance_from_json({**base, "utilities": [{"kind": "mystery"}]})
    with pytest.raises(FormatError):
        instance_from_json(
            {
                **base,
                "utilities": [{"kind": "approval", "approved": []}],
                "constraint": {"kind": "mystery"},
            }
        )


def test_invalid_json_file_is_format_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        load_instance(path)


# one oracle of each kind with the canonical JSON the instance format
# has always given it: unsorted inputs, a zero weight and the empty set
_GOLDEN = [
    (ApprovalUtility([2, 0, 5]), '{"approved":[0,2,5],"kind":"approval"}\n'),
    (
        AdditiveUtility({3: Fraction(1, 3), 0: 1, 1: Fraction(2, 4), 2: 0}),
        '{"kind":"additive","weights":[[0,1],[1,"1/2"],[3,"1/3"]]}\n',
    ),
    (
        CoverageUtility(
            {1: [2, 0], 0: [1]}, {0: Fraction(1, 4), 1: Fraction(1, 2), 2: Fraction(3, 4)}
        ),
        '{"covers":[[0,[1]],[1,[0,2]]],"element_weights":[[0,"1/4"],[1,"1/2"],[2,"3/4"]],'
        '"kind":"coverage"}\n',
    ),
    (
        XOSUtility([{1: Fraction(1, 2), 0: 1}, {2: Fraction(1, 8)}]),
        '{"clauses":[[[0,1],[1,"1/2"]],[[2,"1/8"]]],"kind":"xos"}\n',
    ),
    (
        TableUtility(
            {
                frozenset({0, 1}): 1,
                frozenset({1}): Fraction(2, 7),
                frozenset({0}): Fraction(1, 3),
                frozenset(): 0,
            }
        ),
        '{"entries":[[[],0],[[0],"1/3"],[[1],"2/7"],[[0,1],1]],"kind":"table"}\n',
    ),
    (
        LB00Utility(5, 2, ("a", "b"), {3: "b", 0: "a", 1: "a", 2: "b"}),
        '{"beta":5,"kind":"lb00","party_of":[[0,"a"],[1,"a"],[2,"b"],[3,"b"]],"r":2,'
        '"role":["a","b"]}\n',
    ),
]


@pytest.mark.parametrize("u, blob", _GOLDEN, ids=[u.kind for u, _ in _GOLDEN])
def test_each_kind_encodes_to_its_pinned_canonical_json(u, blob):
    assert dumps_canonical(u.to_json()) == blob
    assert utility_from_json(json.loads(blob)) == u


def test_the_pinned_oracles_cover_every_kind():
    assert sorted(u.kind for u, _ in _GOLDEN) == sorted(UTILITY_KINDS)


@pytest.mark.parametrize("kind", sorted(UTILITY_KINDS))
def test_a_kinds_fields_are_its_constructor_parameters(kind):
    cls = UTILITY_KINDS[kind]
    assert cls.kind == kind
    assert cls.FIELDS == tuple(inspect.signature(cls).parameters)


def _oracle(kind, m, seed):
    """A small oracle of ``kind`` over m candidates; small m and seeds make
    equal oracles from different draws common."""
    rng = rng_from_seed(seed)
    if kind == "lb00":
        return gen_lb00(5 + seed % 3, m).utilities[seed % 6]
    if kind == "table":
        pool = subsets(range(m), range(1, m + 1))
        return TableUtility({T: Fraction(int(rng.integers(0, 3)), 2) for T in pool})
    return random_utility(kind, range(m), rng)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["approval", "additive", "coverage", "xos", "lb00", "table"]),
            st.integers(1, 3),
            st.integers(0, 20),
        ),
        min_size=2,
        max_size=6,
    )
)
def test_every_kind_round_trips_and_its_key_is_its_json(draws):
    oracles = [_oracle(*draw) for draw in draws]
    blobs = [dumps_canonical(u.to_json()) for u in oracles]
    for u, blob in zip(oracles, blobs):
        again = utility_from_json(json.loads(blob))
        assert again == u and dumps_canonical(again.to_json()) == blob
    for (u, a), (v, b) in itertools.product(zip(oracles, blobs), repeat=2):
        assert (u.key() == v.key()) == (a == b)


@pytest.mark.parametrize(
    "obj",
    [
        {"kind": "additive"},
        {"kind": "coverage", "covers": [[0, [0]]]},
        {"kind": "approval", "approved": 5},
        {"kind": "xos", "clauses": [7]},
        {"kind": "table", "entries": [[3, 1]]},
        {"kind": "lb00", "beta": 5, "r": 2, "role": 7, "party_of": []},
        {"kind": "mystery", "approved": []},
        {"kind": ["approval"], "approved": []},
        5,
    ],
    ids=[
        "missing", "missing-second", "non-iterable", "non-iterable-clause",
        "non-iterable-subset", "non-iterable-role", "unknown-kind", "unhashable-kind",
        "not-an-object",
    ],
)
def test_a_malformed_utility_object_is_a_format_error(obj):
    with pytest.raises(FormatError):
        utility_from_json(obj)


def test_lb00_reads_beta_and_r_as_integers():
    u = LB00Utility(5, 2, ("a", "b"), {0: "a", 1: "b"})
    again = utility_from_json({**u.to_json(), "beta": "5", "r": "2"})
    assert again.beta == 5 and again.r == 2 and again == u
