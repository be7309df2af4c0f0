import itertools

import pytest

from corelect.errors import canonical, subsets, subsets_up_to


@pytest.mark.parametrize("m", range(7))
def test_subsets_are_the_product_filter_in_canonical_order(m):
    pool = [3 * c + 1 for c in range(m)][::-1]  # unsorted, non-contiguous ids
    for top in range(m + 2):
        sizes = range(top + 1)
        naive = [
            frozenset(c for c, bit in zip(pool, bits) if bit)
            for bits in itertools.product((0, 1), repeat=m)
            if sum(bits) <= top
        ]
        got = list(subsets(pool, sizes))
        assert got == sorted(naive, key=canonical)
        assert len(got) == len(set(got)) == subsets_up_to(m, top)
