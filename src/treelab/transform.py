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

One splice loop builds every tree after the scan: ``constituent_shuffle`` is
``remove_composition`` with nothing removed, and ``apply_reorder`` the loop with
nothing removed or shuffled. The drawing steps take ``treebank.scan_ptb``'s ``close``
hook, so a reorder step after them runs in their loop, with no walk of its own.

Every operation preserves the multiset of ``(surface, origin)`` leaf
pairs. Randomized operations take a required ``rng``, the sentence's
stream (``run_streams(seed)(index)``), so results are reproducible
and independent of scheduling.

The module opens no file: ``load_rules`` parses lines its caller has read.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

from .files import checked_make
from .rng import Rng
from .treebank import Sentence, TreeNode, iter_nodes, with_children, yield_sentence

_new = tuple.__new__


class ReorderRule(namedtuple("ReorderRule",
                             "feature_id parent_label first_child second_child prefix_match")):
    """A (parent label, two-child pattern) swap rule.

    A node is rewritten when its label equals ``parent_label`` and it has
    exactly two children whose labels match ``first_child`` and
    ``second_child`` in order. Patterns listed in ``prefix_match`` match by
    prefix (so ``VB`` covers ``VBD``, ``VBZ``, ...); all others match
    exactly.
    """

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, feature_id: str, parent_label: str, first_child: str, second_child: str,
                prefix_match: frozenset[str] = frozenset()) -> "ReorderRule":
        if first_child == second_child:
            raise ValueError("child patterns must differ")
        for name in (feature_id, parent_label, first_child, second_child):
            if not name or any(c.isspace() for c in name):
                raise ValueError(f"bad rule component: {name!r}")
        return _new(cls, (feature_id, parent_label, first_child, second_child, prefix_match))

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
    return rule._replace(first_child=rule.second_child, second_child=rule.first_child)


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


def reorder_hook(rules: Iterable[ReorderRule]) -> Callable[[str, list], None] | None:
    """:func:`reorder_kids` over ``rules`` as a ``close`` hook, or None if there are none."""
    table = reorder_table(rules)
    return partial(reorder_kids, table) if table else None


def apply_reorder(tree: TreeNode, rule: ReorderRule | Iterable[ReorderRule]) -> TreeNode:
    """Swap matching two-child nodes everywhere in the tree, in one walk.

    At each node the rules for its label are tried in order (see
    :func:`reorder_kids`), each against the node's children in their current
    order, so a node that one rule swaps is seen swapped by the next. This
    gives what whole-tree passes, one per rule, would give: a node's match
    depends only on its own label and its children's labels, which swaps
    below it never change, and rules for other labels never match it.
    Untouched subtrees are shared, not copied. Leaves keep their origins, so a
    tree with nothing to swap is returned as it is, or get 0..n-1 in order if
    none has one (a mix raises ``ValueError``).
    """
    hook = reorder_hook((rule,) if isinstance(rule, ReorderRule) else rule)
    return _splice(tree, AblationSpec(0.0), None, hook, True)


def constituent_shuffle(tree: TreeNode, rng: Rng, *, include_root: bool = True,
                        close: Callable[[str, list], object] | None = None) -> TreeNode:
    """Permute the children of every internal node with >=2 children.

    Permutations are independent uniform draws from the per-sentence
    stream, consumed in post-order with children visited in their original
    order. Parent-child relations (the grouping structure) are untouched.
    ``include_root=False`` leaves the root's children in place, for callers
    who treat top-level order as fixed. ``close`` as in :func:`remove_composition`.
    """
    return _splice(tree, AblationSpec(0.0, True), rng, close, include_root)


def word_shuffle(sentence: Sentence, rng: Rng) -> Sentence:
    """Uniform random permutation of the tokens; origins follow their tokens."""
    if len(sentence) == 0:
        raise ValueError("cannot shuffle an empty sentence")
    tokens = list(sentence.tokens)
    rng.shuffle(tokens)
    # Permuted origins of a checked Sentence: no new check.
    return _new(Sentence, (tuple(tokens),))


class AblationSpec(namedtuple("AblationSpec", "alpha shuffle_after")):
    """Parameters of one composition-removal pass.

    ``alpha`` is the fraction of intermediate nodes to remove;
    ``shuffle_after`` then shuffles the children of each kept node, as
    ``constituent_shuffle`` does, on the same random stream.
    """

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, alpha: float, shuffle_after: bool = False) -> "AblationSpec":
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        return _new(cls, (alpha, shuffle_after))

    def __eq__(self, other: object) -> bool:
        """Equal only to a record of its own type with equal fields, never to a plain
        tuple: a spec is also a chain step (``pipeline.AblateStep``), and the chain
        steps, which share this method, meet one another. False, not NotImplemented,
        for another type: a tuple would then compare its items."""
        return type(other) is type(self) and tuple.__eq__(self, other)

    __ne__ = object.__ne__  # the negation of __eq__, not tuple's
    __hash__ = tuple.__hash__


def intermediate_node_count(tree: TreeNode) -> int:
    """Number of non-root nodes with more than one child."""
    return sum(len(node.children) > 1 for node in iter_nodes(tree)) - (len(tree.children) > 1)


def remove_composition(tree: TreeNode, spec: AblationSpec, rng: Rng, *,
                       close: Callable[[str, list], object] | None = None) -> TreeNode:
    """Remove ``round(alpha * K)``, rounded half-up, of the K intermediate nodes.

    The nodes are drawn uniformly without replacement, by their pre-order
    rank in the tree as given, before any splice, so the count is exact. Each
    removed node's children take its place in its parent's child list, in
    order; with ``shuffle_after`` each kept node of two or more children is
    then shuffled on the same stream, in the same loop. The draws: one shuffle
    of the K ranks (none if no node goes), then the kept nodes' shuffles in
    post-order. ``close(label, kids)``, as in ``treebank.scan_ptb``, may then
    reorder each kept node's children in place. Leaves keep their origins, or
    get 0..n-1 in order if none has one (a mix raises ``ValueError``); a node
    object met twice counts twice. With nothing removed or shuffled, untouched
    subtrees are shared, as :func:`apply_reorder` shares them.
    """
    return _splice(tree, spec, rng, close, True)


def _splice(tree: TreeNode, spec: AblationSpec, rng: Rng | None,
            close: Callable[[str, list], object] | None, shuffle_root: bool) -> TreeNode:
    """The loop of every caller; if not ``shuffle_root``, the root's children keep their order.
    With nothing removed or shuffled, a node whose children come back unchanged is kept."""
    k, nodes = 0, list(tree.children) if spec.alpha else []  # K, if some node may go
    for node in nodes:  # intermediate_node_count unrolled, as iter_nodes is 3x slower
        kids = node.children
        if kids:
            nodes += kids
            k += len(kids) > 1
    n_remove = math.floor(spec.alpha * k + 0.5)
    removed = bytearray(k)  # by pre-order rank
    if n_remove > 0:
        order = list(range(k))
        rng.shuffle(order)
        for rank in order[:n_remove]:
            removed[rank] = 1
    values: list[TreeNode] = []  # the finished subtrees not yet taken by a parent
    starts: list[int] = []  # per open node, where its children begin in values; -1 if removed
    missing = 0
    verdicts = iter(removed)  # removed or not, for each intermediate node in turn
    shuffle = spec.shuffle_after and rng.shuffle
    opened: list | None = None if n_remove or shuffle else []  # the open nodes, to keep
    stack: list = [tree]  # in pre-order, a node to open or the label of one to close
    while stack:
        item = stack.pop()
        if type(item) is str:
            start = starts.pop()
            if start >= 0:  # else the removed node's children stay in place: spliced
                kids = values[start:]
                del values[start:]
                if shuffle and len(kids) > 1 and (starts or shuffle_root):  # none: the root
                    shuffle(kids)
                if close is not None:
                    close(item, kids)
                values.append(_new(TreeNode, (item, tuple(kids), None, None)) if opened is None
                              else with_children(opened.pop(), kids))
        elif item.token is None:
            kids = item.children
            gone = n_remove and len(kids) > 1 and item is not tree and next(verdicts)
            starts.append(-1 if gone else len(values))
            stack.append(item.label)
            stack += kids[::-1]
            if opened is not None:
                opened.append(item)
        elif item.origin is None:
            values.append(_new(TreeNode, (item.label, (), item.token, missing)))
            missing += 1
        else:
            values.append(item)
    if missing:
        yield_sentence(tree)  # raises ValueError if some leaves have an origin
    return values[0]
