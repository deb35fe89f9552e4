"""Property tests: procedures against their oracles on drawn inputs."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bvmsheaf.bridge import mixify  # noqa: E402

from util import chain_mixify, random_model  # noqa: E402


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_mixify_matches_the_functor_chain_on_drawn_models(rng):
    # the draws of random_model come from hypothesis, so a failure shrinks
    m = random_model(rng, max_atoms=4, max_domain=4)
    assert repr(mixify(m)) == repr(chain_mixify(m))
