"""Tree and sentence modification operations.

Four families of modification, all pure functions over immutable trees:

* ``apply_reorder`` -- swap the two children of nodes matching a word-order
  rewrite rule (the WALS-style 83A/85A/87A built-ins, or custom rules).
* ``constituent_shuffle`` -- independently permute the children of every
  internal node, destroying constituent order while keeping grouping.
* ``word_shuffle`` -- uniform random permutation of the token sequence,
  destroying order and grouping together.
* ``remove_composition`` -- splice out a fixed fraction of the
  "intermediate" nodes (non-root nodes with more than one child),
  weakening the grouping structure by a controllable ratio.

Every operation preserves the multiset of ``(surface, origin)`` leaf
pairs. Randomized operations take a required ``rng``, the sentence's
stream (``SeedScheme(seed, index).stream()``), so results are reproducible
and independent of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .rng import Rng
from .treebank import Sentence, TreeNode, rebuild, with_children

_new = tuple.__new__


@dataclass(frozen=True)
class ReorderRule:
    """A (parent label, two-child pattern) swap rule.

    A node is rewritten when its label equals ``parent_label`` and it has
    exactly two children whose labels match ``first_child`` and
    ``second_child`` in order. Patterns listed in ``prefix_match`` match by
    prefix (so ``VB`` covers ``VBD``, ``VBZ``, ...); all others match
    exactly.
    """

    feature_id: str
    parent_label: str
    first_child: str
    second_child: str
    prefix_match: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.first_child == self.second_child:
            raise ValueError("child patterns must differ")
        for name in (self.feature_id, self.parent_label, self.first_child, self.second_child):
            if not name or any(c.isspace() for c in name):
                raise ValueError(f"bad rule component: {name!r}")

    def _matches(self, label: str, pattern: str) -> bool:
        if pattern in self.prefix_match:
            return label.startswith(pattern)
        return label == pattern

    def matches(self, node: TreeNode) -> bool:
        return self._matches_children(node.label, node.children)

    def _matches_children(self, label: str, children: Sequence[TreeNode]) -> bool:
        """Whether a node labelled ``label`` with ``children`` matches."""
        return (
            label == self.parent_label
            and len(children) == 2
            and self._matches(children[0].label, self.first_child)
            and self._matches(children[1].label, self.second_child)
        )


# Verb/object order, adposition/noun-phrase order, adjective/noun order.
# Prefix matching covers the tag families (VBD/VBZ..., NNS/NNP..., JJR...).
BUILTIN_RULES: dict[str, ReorderRule] = {
    "83A": ReorderRule("83A", "VP", "VB", "NP", frozenset({"VB"})),
    "85A": ReorderRule("85A", "PP", "IN", "NP"),
    "87A": ReorderRule("87A", "NP", "JJ", "NN", frozenset({"JJ", "NN"})),
}


def inverse_rule(rule: ReorderRule) -> ReorderRule:
    """Swap the child patterns; undoes ``apply_reorder`` on trees that
    contained no already-swapped instance of the rule."""
    return replace(rule, first_child=rule.second_child, second_child=rule.first_child)


def load_rules(lines: Iterable[str]) -> list[ReorderRule]:
    """Parse a rule file: one ``FEATURE PARENT CHILD1 CHILD2 [prefix:PAT ...]``
    per line, blank lines and ``#`` comments ignored."""
    rules = []
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) < 4:
            raise ValueError(f"rule line {lineno}: expected at least 4 fields, got {len(parts)}")
        prefixes = set()
        for extra in parts[4:]:
            if not extra.startswith("prefix:") or len(extra) <= len("prefix:"):
                raise ValueError(f"rule line {lineno}: bad modifier {extra!r}")
            prefixes.add(extra[len("prefix:"):])
        try:
            rules.append(ReorderRule(parts[0], parts[1], parts[2], parts[3], frozenset(prefixes)))
        except ValueError as exc:
            raise ValueError(f"rule line {lineno}: {exc}") from exc
    return rules


def load_rules_file(path: str) -> list[ReorderRule]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    return load_rules(lines)


def apply_reorder(tree: TreeNode, rule: ReorderRule | Iterable[ReorderRule]) -> TreeNode:
    """Swap matching two-child nodes everywhere in the tree, in one walk.

    At each node the rules are tried in order, each against the node's
    children in their current order, so a node that one rule swaps is
    seen swapped by the next. This gives what whole-tree passes, one per
    rule, would give: a node's match depends only on its own label and its
    children's labels, which swaps below it never change. Non-matching
    trees pass through unchanged (and untouched subtrees are shared, not
    copied).
    """
    rules = (rule,) if isinstance(rule, ReorderRule) else tuple(rule)

    def combine(node: TreeNode, kids: list[TreeNode]) -> TreeNode:
        for one in rules:
            if one._matches_children(node.label, kids):
                kids.reverse()
        return with_children(node, kids)

    return rebuild(tree, combine)


def constituent_shuffle(tree: TreeNode, rng: Rng, *, include_root: bool = True) -> TreeNode:
    """Permute the children of every internal node with >=2 children.

    Permutations are independent uniform draws from the per-sentence
    stream, consumed in post-order with children visited in their original
    order. Parent-child relations (the grouping structure) are untouched.
    ``include_root=False`` leaves the root's children in place, for callers
    who treat top-level order as fixed.
    """
    shuffle = rng.shuffle

    def combine(node: TreeNode, kids: list[TreeNode]) -> TreeNode:
        if len(kids) >= 2 and (include_root or node is not tree):
            shuffle(kids)
        return _new(TreeNode, (node.label, tuple(kids), None, None))

    return rebuild(tree, combine)


def word_shuffle(sentence: Sentence, rng: Rng) -> Sentence:
    """Uniform random permutation of the tokens; origins follow their tokens."""
    if len(sentence) == 0:
        raise ValueError("cannot shuffle an empty sentence")
    tokens = list(sentence.tokens)
    rng.shuffle(tokens)
    shuffled = object.__new__(Sentence)  # permuted origins of a checked Sentence: no new check
    object.__setattr__(shuffled, "tokens", tuple(tokens))
    return shuffled


@dataclass(frozen=True)
class AblationSpec:
    """Parameters of one composition-removal pass.

    ``alpha`` is the fraction of intermediate nodes to remove;
    ``shuffle_after`` additionally runs ``constituent_shuffle`` on the
    spliced tree, continuing on the same random stream.
    """

    alpha: float
    shuffle_after: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")


def intermediate_node_count(tree: TreeNode) -> int:
    """Number of non-root nodes with more than one child."""
    return len(_intermediate_ranks(tree))


def _intermediate_ranks(tree: TreeNode) -> list[int]:
    """Pre-order rank of each intermediate node (a position, not a node
    object, which may occur twice), listed in post-order."""
    ranks: list[int] = []
    found = 0
    stack: list = list(reversed(tree.children))  # the root is no candidate
    while stack:
        item = stack.pop()
        if type(item) is int:  # popped after the candidate's whole subtree
            ranks.append(item)
        elif item.children:
            if len(item.children) > 1:
                stack.append(found)
                found += 1
            stack.extend(reversed(item.children))
    return ranks


def remove_composition(tree: TreeNode, spec: AblationSpec, rng: Rng) -> TreeNode:
    """Remove ``round(alpha * K)`` of the K intermediate nodes.

    Selection is uniform without replacement and decided against the
    original tree's intermediate-node set, in pre-order, before any splice
    is applied, so the removal count is exact even though splicing changes
    child counts. Each removed node's children take its place in its
    parent's child list, preserving order; with ``shuffle_after`` the
    spliced tree is then constituent-shuffled on the same stream, in the
    same walk. ``round`` is half-up, giving zero variance at alpha 0 and 1.
    """
    ranks = _intermediate_ranks(tree)
    k = len(ranks)
    n_remove = math.floor(spec.alpha * k + 0.5)
    removed = [False] * k  # in post-order, the order ``combine`` meets them
    if n_remove > 0:
        order = list(range(k))
        rng.shuffle(order)
        selected = set(order[:n_remove])
        removed = [rank in selected for rank in ranks]
    verdicts = iter(removed)
    shuffle = rng.shuffle if spec.shuffle_after else None

    def combine(node: TreeNode, values: list) -> TreeNode | tuple[TreeNode, ...]:
        kids: list[TreeNode] = []
        for value in values:
            if type(value) is tuple:  # a removed child's children
                kids.extend(value)
            else:
                kids.append(value)
        if node is not tree and len(node.children) > 1 and next(verdicts):
            return tuple(kids)
        if shuffle is not None and len(kids) >= 2:
            shuffle(kids)
        return _new(TreeNode, (node.label, tuple(kids), None, None))

    return rebuild(tree, combine)

