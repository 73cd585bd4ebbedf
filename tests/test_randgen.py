"""The shared random generators themselves."""

import random

import pytest

from relchern import FormalBase
from tests.randgen import DIVISORS, random_form


def test_random_form_rejects_a_ring_without_nonzero_forms():
    # at bound 0 every divisor truncates away: no draw could ever succeed
    rng = random.Random(5)
    state = rng.getstate()
    base = FormalBase(0, divisors=DIVISORS)
    with pytest.raises(ValueError):
        random_form(rng, base)
    assert rng.getstate() == state
    assert random_form(rng, base, nonzero=False).is_zero()
    assert not random_form(rng, FormalBase(1, divisors=DIVISORS)).is_zero()
