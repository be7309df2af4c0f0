"""Each construction's constants have one home; pin every home to the
values its former copies held."""

import inspect
import itertools
import math
from fractions import Fraction

import pytest

from corelect.cli import parse_gamma
from corelect.errors import ParameterError
from corelect.instances import LB00_PARTIES, LB00_ROLES, gen_lb_16_15, lb1_geometry
from corelect.intervals import exp_upper
from corelect.lb_search import _compositions, lb1_emptiness_search, verify_passing_class


def test_lb00_parties_and_roles_derive_from_the_triads():
    assert LB00_PARTIES == ("a", "b", "c", "d", "e", "f")
    assert LB00_ROLES == (("a", "b"), ("b", "c"), ("c", "a"), ("d", "e"), ("e", "f"), ("f", "d"))


def test_lb16_15_approvals_derive_from_the_parties():
    assert gen_lb_16_15(5).meta["approves"] == {
        "a": ("ab", "ca", "ad"),
        "b": ("ab", "bc", "bd"),
        "c": ("bc", "ca", "cd"),
        "d": ("ad", "bd", "cd"),
    }


def test_lb1_geometry():
    assert lb1_geometry(5) == (32, 30, 30)
    assert lb1_geometry(10, 7) == (64, 60, 7)


@pytest.mark.parametrize(
    "entry",
    [
        lambda r, pool: gen_lb_16_15(r, pool),
        lambda r, pool: lb1_emptiness_search(r, pool_size=pool),
        lambda r, pool: verify_passing_class(r, (0,) * 6, pool_size=pool),
    ],
    ids=["gen_lb_16_15", "lb1_emptiness_search", "verify_passing_class"],
)
def test_every_lb1_entry_point_refuses_the_same_geometry(entry):
    for r in (0, 3, 7):
        with pytest.raises(ParameterError, match="r must be a positive multiple of 5"):
            entry(r, None)
    with pytest.raises(ParameterError, match="pool_size must be positive"):
        entry(5, 0)


def test_e_upper_bound_is_computed_to_its_former_literal():
    assert exp_upper(1) == Fraction("2.7182818285")
    assert parse_gamma("e^1") == (exp_upper(1), True)


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_party_count_compositions_match_a_naive_filter(r):
    for t in range(6 * r + 2):
        naive = [h for h in itertools.product(range(r + 1), repeat=6) if sum(h) == t]
        assert list(_compositions((r,) * 6, t)) == naive


def test_lb1_scan_library_defaults_stop_at_a_class_count():
    params = inspect.signature(lb1_emptiness_search).parameters
    assert params["class_cap"].default == 40_000
    assert params["time_cap_s"].default == math.inf
