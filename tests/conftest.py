import os
import random

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, settings

from oracle_lab.transitions import (
    DEFAULT_NT_CAP,
    apply,
    initial_config,
    parse_transition,
)
from oracle_lab.trees import parse_bracketed, random_tree
from oracle_lab.verify import _random_walk

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("thorough", max_examples=400, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

EXAMPLE_TREE = "(S (NP The public) (VP is (ADVP still) (ADJP cautious)) .)"

EXAMPLE_TOP_DOWN = (
    "NT_S NT_NP SH SH RE NT_VP SH NT_ADVP SH RE NT_ADJP SH RE RE SH RE"
).split()

EXAMPLE_IN_ORDER = (
    "SH NT_NP SH RE NT_S SH NT_VP SH NT_ADVP RE SH NT_ADJP RE RE SH RE FI"
).split()


@pytest.fixture
def example_tree():
    return parse_bracketed(EXAMPLE_TREE)


def replay(tokens, strategy, names, cap=DEFAULT_NT_CAP):
    """The configuration the space-separated transition names reach from
    the initial one over tokens, under the NT cap."""
    c = initial_config(tokens, strategy, max_consecutive_nt=cap)
    for name in names.split():
        c = apply(c, parse_transition(name))
    return c


def walk_configs(tree, strategy, alphabet, seed, steps):
    """verify's seeded random walk of at most steps moves over alphabet
    from the initial configuration under NT cap 3, every configuration on
    it in order."""
    start = initial_config(tree.tokens, strategy, max_consecutive_nt=3)
    return _random_walk(start, alphabet, random.Random(seed), steps)


def trees(max_tokens=5, labels=("X", "Y", "Z")):
    """Hypothesis strategy for small random trees."""
    return st.builds(
        random_tree,
        st.integers(min_value=1, max_value=max_tokens),
        st.just(list(labels)),
        st.integers(min_value=0, max_value=10**6),
    )
