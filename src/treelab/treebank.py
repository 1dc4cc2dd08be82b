"""Bracketed constituent trees: parsing, serialization, traversal.

A tree is represented by its root :class:`TreeNode`. Nodes are immutable
tuples; transformations build new trees and share untouched subtrees, so
trees are safe to hand to concurrent workers. Leaves carry the surface
token and, once assigned, the token's position in the original sentence
(``origin``), which rides along through every transformation and makes
order metrics well-defined even when surface forms repeat. Equality and
hashing ignore ``origin``. Nothing here recurses, so trees may be nested to
any depth. Code that knows a node's fields are valid may skip the checks
of ``TreeNode(...)`` with ``tuple.__new__(TreeNode, (label, kids, token, origin))``.

File convention: UTF-8, one bracketed tree per line. Lines that contain
only brackets and whitespace (e.g. ``(())``) are treated as empty
placeholders and skipped with a warning counter rather than rejected.

Tokens and labels may not contain raw parentheses or whitespace;
``escape_symbol`` maps ``(`` / ``)`` to the PTB forms ``-LRB-`` / ``-RRB-``
and any whitespace character to ``-SPC-``. Escaping happens when a node is
built from raw text; already-escaped input (e.g. a literal ``-LRB-`` in a
treebank file) is preserved verbatim.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from operator import is_
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

_SPACE = re.compile(r"\s")  # exactly the characters for which str.isspace() holds
_MIXED = "tree mixes leaves with and without origin indices"
_new = tuple.__new__
V = TypeVar("V")


class TreeParseError(ValueError):
    """Malformed bracketing; ``offset`` is the UTF-8 byte offset of the problem."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def escape_symbol(text: str) -> str:
    """Escape raw parentheses/whitespace so the symbol is serializable."""
    return _SPACE.sub("-SPC-", text.replace("(", "-LRB-").replace(")", "-RRB-"))


class TreeNode(namedtuple("TreeNode", "label children token origin")):
    """One node: a leaf iff ``token`` is set, in which case it has no children.

    ``origin`` (leaves only) is excluded from equality and hashing: two trees
    are structurally equal when labels, tokens, and child order agree.
    """

    __slots__ = ()

    def __new__(cls, label: str, children: tuple["TreeNode", ...] = (), token: str | None = None,
                origin: int | None = None) -> "TreeNode":
        if not label:
            raise ValueError("empty node label")
        if (token is None) == (not children):
            raise ValueError("node must have either a token or children, not both")
        return _new(cls, (label, children, token, origin))

    @property
    def is_leaf(self) -> bool:
        return self.token is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeNode):
            return False  # not NotImplemented: tuple's reflected == would compare fields
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is not b:
                if a.label != b.label or a.token != b.token or len(a.children) != len(b.children):
                    return False
                pairs.extend(zip(a.children, b.children))
        return True

    __ne__ = object.__ne__  # negates __eq__; tuple's own would compare origins

    def __hash__(self) -> int:
        return hash(serialize(self))

    def __repr__(self) -> str:
        origins = tuple(node.origin for node in iter_leaves(self))
        return f"TreeNode({serialize(self)!r}, origins={origins})"


def leaf(label: str, token: str, origin: int | None = None) -> TreeNode:
    """Build a leaf from raw text, escaping reserved characters."""
    lab, tok = escape_symbol(label), escape_symbol(token)
    if not lab or not tok:
        raise ValueError("leaf label and token must be non-empty")
    return TreeNode(lab, (), tok, origin)


def internal(label: str, children: Iterable[TreeNode]) -> TreeNode:
    """Build an internal node from raw text label and >=1 children."""
    kids = tuple(children)
    if not kids:
        raise ValueError("internal node needs at least one child")
    lab = escape_symbol(label)
    if not lab:
        raise ValueError("empty node label")
    return TreeNode(lab, kids)


def is_permutation(values: Sequence[int]) -> bool:
    """Whether ``values`` holds each of 0..n-1 exactly once (O(n), seen-array)."""
    n = len(values)
    seen = bytearray(n)
    for v in values:
        if not 0 <= v < n or seen[v]:
            return False
        seen[v] = 1
    return True


@dataclass(frozen=True)
class Sentence:
    """Ordered tokens with their positions in the original sentence.

    ``tokens`` is a sequence of ``(surface, origin_index)`` pairs; the
    origin indices are always a permutation of ``0..n-1`` but need not be
    sorted once the sentence has been transformed.
    """

    tokens: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if not is_permutation([o for _, o in self.tokens]):
            raise ValueError("origin indices must be a permutation of 0..n-1")

    def __len__(self) -> int:
        return len(self.tokens)

    def surfaces(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.tokens)

    def origins(self) -> tuple[int, ...]:
        return tuple(o for _, o in self.tokens)

    def text(self) -> str:
        return " ".join(self.surfaces())

    @classmethod
    def from_surfaces(cls, surfaces: Iterable[str]) -> "Sentence":
        return cls(tuple((s, i) for i, s in enumerate(surfaces)))


_WS = re.compile(r"\s*")
_ATOM = re.compile(r"[^\s()]+")
# "(" and a label; for a leaf also its token and ")"; then any whitespace.
_OPEN = re.compile(r"\(\s*([^\s()]+)(?:\s+([^\s()]+)\s*\))?\s*")


def parse_ptb(text: str) -> TreeNode:
    """Parse a single bracketed tree ``(LABEL child ...)`` / ``(TAG token)``.

    Leaf origins are assigned 0..n-1 in textual order. Raises
    :class:`TreeParseError` with a byte offset on malformed input. One
    regex match per leaf, opening and closing bracket; open internal nodes
    wait on an explicit stack.
    """
    n = len(text)
    pos = _WS.match(text).end()
    if pos == n:
        raise TreeParseError("empty input", _byte_offset(text, pos))
    if text[pos] != "(":
        raise TreeParseError(f"expected '(', found {text[pos]!r}", _byte_offset(text, pos))
    stack: list[tuple[str, list[TreeNode]]] = []  # open internal nodes
    leaves = 0
    while True:
        m = _OPEN.match(text, pos)
        if m is None:
            pos = _WS.match(text, pos + 1).end()
            what = "end of input" if pos == n else repr(text[pos])
            raise TreeParseError(f"expected node label, found {what}", _byte_offset(text, pos))
        label, token = m.groups()
        pos = m.end()
        if token is None:
            if pos < n and text[pos] == "(":
                stack.append((label, []))
                continue
            raise _bad_leaf(text, pos)
        node = _new(TreeNode, (label, (), token, leaves))
        leaves += 1
        while stack:
            stack[-1][1].append(node)
            if pos == n:
                raise TreeParseError("unbalanced brackets: unexpected end of input", _byte_offset(text, pos))
            if text[pos] == "(":
                break
            if text[pos] != ")":
                raise TreeParseError(f"expected ')' , found {text[pos]!r}", _byte_offset(text, pos))
            label, kids = stack.pop()
            node = _new(TreeNode, (label, tuple(kids), None, None))
            pos = _WS.match(text, pos + 1).end()
        else:
            if pos < n:
                raise TreeParseError("trailing content after tree", _byte_offset(text, pos))
            return node


def _bad_leaf(text: str, pos: int) -> TreeParseError:
    """The error for a label ending at ``pos`` that is followed neither by a
    child nor by ``token)``."""
    m = _ATOM.match(text, pos)
    end = _WS.match(text, m.end()).end() if m else pos
    if end == len(text):
        message = "unbalanced brackets: unexpected end of input"
    elif m is None:
        message = f"expected token or child, found {text[end]!r}"
    elif text[end] == "(":
        message = "leaf cannot have children"
    else:
        message = f"expected ')' after token, found {text[end]!r}"
    return TreeParseError(message, _byte_offset(text, end))


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def rebuild(tree: TreeNode, combine: Callable[[TreeNode, list[V]], V],
            leaf: Callable[[TreeNode], V] | None = None) -> V:
    """Fold ``tree`` bottom-up: post-order, children in their original order.

    Each internal node becomes ``combine(node, values)``, ``values`` being a
    fresh list of what its children became, and each leaf ``leaf(node)``. A
    node object that occurs twice is visited twice. Without ``leaf``, leaves
    keep their origins, or get 0..n-1 in order if none has one; a tree that
    mixes the two raises ``ValueError``.
    """
    order = []  # root, then each subtree right to left: reversed, it is post-order
    stack = [tree]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    values: list = []
    carried = leaves = 0
    for node in reversed(order):
        kids = node.children
        if kids:
            k = len(kids)
            values[-k:] = (combine(node, values[-k:]),)
        elif leaf is not None:
            values.append(leaf(node))
        else:
            if node.origin is not None:
                carried += 1
            else:
                node = _new(TreeNode, (node.label, (), node.token, leaves))
            leaves += 1
            if carried and carried != leaves:
                raise ValueError(_MIXED)
            values.append(node)
    return values[0]


def with_children(node: TreeNode, kids: Sequence[TreeNode]) -> TreeNode:
    """``node`` itself when ``kids`` are its own children, else a copy with ``kids``."""
    if len(kids) == len(node.children) and all(map(is_, kids, node.children)):
        return node
    return _new(TreeNode, (node.label, tuple(kids), None, None))


def serialize(tree: TreeNode) -> str:
    """Canonical single-space form; ``parse_ptb(serialize(t))`` equals ``t``."""
    parts = []
    stack: list = [tree]
    while stack:
        node = stack.pop()
        if node is None:  # the end of an internal node
            parts.append(")")
        elif node.token is None:
            parts.append(" (" + node.label)
            stack.append(None)
            stack.extend(node.children[::-1])
        else:
            parts.append(f" ({node.label} {node.token})")
    return "".join(parts)[1:]  # every node's text starts with a space


def iter_nodes(tree: TreeNode) -> Iterator[TreeNode]:
    """Pre-order traversal."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def iter_leaves(tree: TreeNode) -> Iterator[TreeNode]:
    return (node for node in iter_nodes(tree) if node.is_leaf)


def ensure_origins(tree: TreeNode) -> TreeNode:
    """Return a tree whose leaves all carry origins.

    If no leaf has an origin, positions 0..n-1 are assigned in leaf order;
    if all leaves already have origins the tree is returned unchanged.
    Mixed trees are rejected: they indicate leaves from different
    provenances were combined.
    """
    return rebuild(tree, with_children)


def yield_sentence(tree: TreeNode) -> Sentence:
    """Left-to-right leaf sequence with carried (or freshly assigned) origins."""
    tokens = []
    missing = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.token is None:
            stack.extend(reversed(node.children))
        else:
            if node.origin is None:
                missing += 1
            tokens.append((node.token, node.origin))
    if missing:
        if missing < len(tokens):
            raise ValueError(_MIXED)
        tokens = [(token, i) for i, (token, _) in enumerate(tokens)]
    return Sentence(tuple(tokens))


# Lines with no symbol content: blank lines and empty-bracket placeholders
# such as "(())" that some exporters leave behind for unparsed sentences.
_NON_TREE_LINE = re.compile(r"^[\s()]*$")


class TreebankReader:
    """Iterate ``(line_number, tree)`` over one-tree-per-line text.

    ``skipped`` counts placeholder lines (empty or bracket-only) that were
    passed over. Line numbers are 1-based. Parse errors propagate; callers
    that want to tolerate them should catch :class:`TreeParseError`.
    """

    def __init__(self, lines: Iterable[str]) -> None:
        self._lines = lines
        self.skipped = 0

    def __iter__(self) -> Iterator[tuple[int, TreeNode]]:
        for lineno, line in enumerate(self._lines, start=1):
            if _NON_TREE_LINE.match(line):
                if line.strip():
                    self.skipped += 1
                continue
            yield lineno, parse_ptb(line)


def read_treebank(path: str) -> list[TreeNode]:
    """Read all trees from a file, silently skipping placeholder lines."""
    with open(path, encoding="utf-8") as fh:
        return [tree for _, tree in TreebankReader(fh)]


def write_treebank(path: str, trees: Iterable[TreeNode]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for tree in trees:
            fh.write(serialize(tree))
            fh.write("\n")
