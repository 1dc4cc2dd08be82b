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

The module opens no file: ``load_rules`` parses lines its caller has read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from .rng import Rng
from .treebank import Sentence, TreeNode, iter_nodes, rebuild, with_children, yield_sentence

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


def load_rules(lines: Iterable[str], origin: str = "<rules>") -> list[ReorderRule]:
    """Parse a rule file: one ``FEATURE PARENT CHILD1 CHILD2 [prefix:PAT ...]``
    per line, blank lines and ``#`` comments ignored; a bad line, or one that
    gives a built-in or earlier feature a different rule, raises ``ValueError``
    as ``ORIGIN:LINE: reason``."""
    rules = []
    known = dict(BUILTIN_RULES)
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) < 4:
            raise ValueError(f"{origin}:{lineno}: expected at least 4 fields, got {len(parts)}")
        prefixes = set()
        for extra in parts[4:]:
            if not extra.startswith("prefix:") or len(extra) <= len("prefix:"):
                raise ValueError(f"{origin}:{lineno}: bad modifier {extra!r}")
            prefixes.add(extra[len("prefix:"):])
        try:
            rule = ReorderRule(parts[0], parts[1], parts[2], parts[3], frozenset(prefixes))
        except ValueError as exc:
            raise ValueError(f"{origin}:{lineno}: {exc}") from exc
        if known.setdefault(rule.feature_id, rule) != rule:
            raise ValueError(f"{origin}:{lineno}: feature {rule.feature_id} is already defined")
        rules.append(rule)
    return rules


def reorder_table(rules: Iterable[ReorderRule]) -> dict[str, tuple[ReorderRule, ...]]:
    """``rules`` by parent label, each label's rules in the order given."""
    table: dict[str, tuple[ReorderRule, ...]] = {}
    for rule in rules:
        table[rule.parent_label] = table.get(rule.parent_label, ()) + (rule,)
    return table


def reorder_kids(table: Mapping[str, Sequence[ReorderRule]], label: str,
                 kids: list[TreeNode]) -> None:
    """Try the rules that :func:`reorder_table` files under ``label``, in order, at a
    node labelled ``label``: each that matches ``kids`` as they are then reverses
    them in place. A label that no rule names costs one lookup."""
    for rule in table.get(label, ()):
        if rule._matches_children(label, kids):
            kids.reverse()


def apply_reorder(tree: TreeNode, rule: ReorderRule | Iterable[ReorderRule]) -> TreeNode:
    """Swap matching two-child nodes everywhere in the tree, in one walk.

    At each node the rules for its label are tried in order (see
    :func:`reorder_kids`), each against the node's children in their current
    order, so a node that one rule swaps is seen swapped by the next. This
    gives what whole-tree passes, one per rule, would give: a node's match
    depends only on its own label and its children's labels, which swaps
    below it never change, and rules for other labels never match it.
    Non-matching trees pass through unchanged (and untouched subtrees are
    shared, not copied).
    """
    table = reorder_table((rule,) if isinstance(rule, ReorderRule) else rule)

    def combine(node: TreeNode, kids: list[TreeNode]) -> TreeNode:
        reorder_kids(table, node.label, kids)
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
    return sum(len(node.children) > 1 for node in iter_nodes(tree)) - (len(tree.children) > 1)


def remove_composition(tree: TreeNode, spec: AblationSpec, rng: Rng) -> TreeNode:
    """Remove ``round(alpha * K)``, rounded half-up, of the K intermediate nodes.

    The nodes are drawn uniformly without replacement, by their pre-order
    rank in the tree as given, before any splice, so the count is exact. Each
    removed node's children take its place in its parent's child list, in
    order; with ``shuffle_after`` each kept node of two or more children is
    then shuffled on the same stream, in the same loop. The draws: one shuffle
    of the K ranks (none if no node goes), then the kept nodes' shuffles in
    post-order. Leaves keep their origins, or get 0..n-1 in order if none has
    one (a mix raises ``ValueError``); a node object met twice counts twice.
    """
    walk: list = []  # pre-order: an internal node's rank among intermediate nodes (or -1)
    k = 0  # as it opens and its label as it closes; a leaf as itself. k: the next rank
    stack: list = [tree]
    while stack:
        node = stack.pop()
        if type(node) is str or node.token is not None:
            walk.append(node)
        else:
            kids = node.children
            intermediate = len(kids) > 1 and node is not tree
            walk.append(k if intermediate else -1)
            k += intermediate
            stack.append(node.label)
            stack += kids[::-1]
    n_remove = math.floor(spec.alpha * k + 0.5)
    removed = bytearray(k + 1)  # by rank; -1, no candidate, reads the extra last 0
    if n_remove > 0:
        order = list(range(k))
        rng.shuffle(order)
        for rank in order[:n_remove]:
            removed[rank] = 1
    values: list[TreeNode] = []  # the finished subtrees not yet taken by a parent
    starts: list[int] = []  # per open node, where its children begin in values; -1 if removed
    missing = 0
    for item in walk:
        if type(item) is int:
            starts.append(-1 if removed[item] else len(values))
        elif type(item) is str:
            start = starts.pop()
            if start >= 0:  # else the removed node's children stay in place: spliced
                kids = values[start:]
                del values[start:]
                if spec.shuffle_after and len(kids) > 1:
                    rng.shuffle(kids)
                values.append(_new(TreeNode, (item, tuple(kids), None, None)))
        elif item.origin is None:
            values.append(_new(TreeNode, (item.label, (), item.token, missing)))
            missing += 1
        else:
            values.append(item)
    if missing:
        yield_sentence(tree)  # raises ValueError if some leaves have an origin
    return values[0]
