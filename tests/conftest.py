from __future__ import annotations

import os

import hypothesis.strategies as st
from hypothesis import HealthCheck, settings

from treelab.rng import Rng
from helpers import internal
from treelab.treebank import TreeNode, leaf

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("thorough", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# Verdict lines recorded by the acceptance tests; replayed after the run
# so they survive output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

LABELS = ("S", "NP", "VP", "PP", "X", "YP")
PRETERMINALS = ("NN", "NNS", "VB", "VBD", "JJ", "IN", "DT", "PRP")
WORDS = ("stone", "bird", "read", "left", "right", "(", ")", "a-b", "năo")


@st.composite
def leaf_nodes(draw) -> TreeNode:
    return leaf(draw(st.sampled_from(PRETERMINALS)), draw(st.sampled_from(WORDS)))


def tree_nodes(max_leaves: int = 10) -> st.SearchStrategy[TreeNode]:
    """Arbitrary small trees, including unary chains and wide nodes."""
    return st.recursive(
        leaf_nodes(),
        lambda children: st.builds(
            internal,
            st.sampled_from(LABELS),
            st.lists(children, min_size=1, max_size=4),
        ),
        max_leaves=max_leaves,
    )


def random_tree(rng: Rng, max_depth: int = 4, max_children: int = 3) -> TreeNode:
    """Fast seeded tree fuzzer for high-volume sweeps (no hypothesis overhead)."""
    if max_depth == 0 or rng.randbelow(4) == 0:
        tag = PRETERMINALS[rng.randbelow(len(PRETERMINALS))]
        word = WORDS[rng.randbelow(len(WORDS))]
        return leaf(tag, word)
    width = 1 + rng.randbelow(max_children)
    children = [random_tree(rng, max_depth - 1, max_children) for _ in range(width)]
    return internal(LABELS[rng.randbelow(len(LABELS))], children)
