"""Bracketed constituent trees: parsing, serialization, traversal.

A tree is represented by its root :class:`TreeNode`. Nodes are immutable
tuples, so trees are safe to hand to concurrent workers; ``transform``'s splice
loop, where it removes and shuffles nothing (``apply_reorder``), shares untouched
subtrees (:func:`with_children`). Leaves carry the surface
token and, once assigned, the token's position in the original sentence
(``origin``), which rides along through every transformation and makes
order metrics well-defined even when surface forms repeat. Nothing here
recurses, so trees may be nested to any depth. Code that knows a node's fields
are valid may skip the checks of ``TreeNode(...)`` with
``tuple.__new__(TreeNode, (label, kids, token, origin))``.

One scanner and one writer: :func:`scan_ptb` reads a line's brackets in one
loop, building the tree or not; a hook, as in ``transform``'s splice loop, may
reorder each node's children as it closes. :func:`write_tree` writes a line and
its leaves in one walk; :func:`serialize` and :func:`yield_sentence` take halves.

File convention: UTF-8, one bracketed tree per line. Every reader of tree
lines (``transform``, ``stats`` and :func:`read_treebank`) classifies and
scans a line through :func:`scan_line`: a blank line, or one that contains
only brackets and whitespace (an empty placeholder such as ``(())``), holds
no tree and is skipped rather than rejected; any other line is scanned as
read, without its newline, so one malformed line gives one message and one
byte offset on every path. :func:`read_treebank` is a generator: it raises
when iteration reaches a malformed line.

A node's label and a leaf's token are non-empty and already escaped, holding no
whitespace and no parenthesis (``TreeNode(...)`` raises ``ValueError`` otherwise),
so two trees are equal, and hash alike, when they write the same line, origins
aside. :func:`leaf` escapes raw text with ``escape_symbol`` (``(`` / ``)`` become
``-LRB-`` / ``-RRB-``, whitespace ``-SPC-``; escaped input such as ``-LRB-`` is kept).
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import islice
from operator import is_
from typing import Callable, Iterable, Iterator, Sequence

from .files import checked_make, read_lines, replace_on_success

_SPACE = re.compile(r"\s")  # exactly the characters for which str.isspace() holds
_SYMBOL = re.compile(r"[^\s()]+")  # a label or token that reads back as written
_MIXED = "tree mixes leaves with and without origin indices"
_new = tuple.__new__


class TreeParseError(ValueError):
    """Malformed bracketing; ``offset`` is the UTF-8 byte offset of the problem."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class AlignmentError(ValueError):
    """Two sentences hold different (surface, origin) pairs, or origins are not a permutation."""


def escape_symbol(text: str) -> str:
    """Escape raw parentheses/whitespace so the symbol is serializable."""
    return _SPACE.sub("-SPC-", text.replace("(", "-LRB-").replace(")", "-RRB-"))


class TreeNode(namedtuple("TreeNode", "label children token origin")):
    """One node: a leaf iff ``token`` is set, in which case it has no children.

    ``origin`` (leaves only) is excluded from equality and hashing: two trees
    are equal when :func:`serialize` writes them as the same line.
    """

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, label: str, children: tuple["TreeNode", ...] = (), token: str | None = None,
                origin: int | None = None) -> "TreeNode":
        if not _SYMBOL.fullmatch(label):
            raise ValueError(f"node label {label!r} is empty or holds whitespace or a parenthesis")
        if token is not None and not _SYMBOL.fullmatch(token):
            raise ValueError(f"leaf token {token!r} is empty or holds whitespace or a parenthesis")
        if (token is None) == (not children):
            raise ValueError("node must have either a token or children, not both")
        return _new(cls, (label, children, token, origin))

    def __eq__(self, other: object) -> bool:
        # False, not NotImplemented: tuple's reflected == would compare fields
        return isinstance(other, TreeNode) and (self is other or serialize(self) == serialize(other))

    __ne__ = object.__ne__  # negates __eq__; tuple's own would compare origins

    def __hash__(self) -> int:
        return hash(serialize(self))

    def __repr__(self) -> str:
        text, tokens = write_tree(self, True)
        return f"TreeNode({text!r}, origins={tuple(origin for _, origin in tokens)})"


def leaf(label: str, token: str, origin: int | None = None) -> TreeNode:
    """Build a leaf from raw text, escaping reserved characters."""
    return TreeNode(escape_symbol(label), (), escape_symbol(token), origin)


def is_permutation(values: Sequence[int]) -> bool:
    """Whether ``values`` holds each of 0..n-1 exactly once (O(n), seen-array)."""
    n = len(values)
    seen = bytearray(n)
    for v in values:
        if not 0 <= v < n or seen[v]:
            return False
        seen[v] = 1
    return True


class Sentence(namedtuple("Sentence", "tokens")):
    """Ordered tokens with their positions in the original sentence.

    ``tokens`` is a sequence of ``(surface, origin_index)`` pairs; the
    origin indices are always a permutation of ``0..n-1`` but need not be
    sorted once the sentence has been transformed. ``len`` is the number of
    tokens.
    """

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, tokens: tuple[tuple[str, int], ...]) -> "Sentence":
        if not is_permutation([o for _, o in tokens]):
            raise AlignmentError("origin indices must be a permutation of 0..n-1")
        return _new(cls, (tokens,))

    def __len__(self) -> int:
        return len(self.tokens)

    def surfaces(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.tokens)

    def origins(self) -> tuple[int, ...]:
        return tuple(o for _, o in self.tokens)

    def text(self) -> str:
        return " ".join(self.surfaces())

    @classmethod
    def of_leaves(cls, tokens: list[tuple[str, int | None]]) -> "Sentence":
        """A tree's ``(token, origin)`` leaves in order, as :func:`write_tree` lists them;
        origins 0..n-1 in order if no leaf has one, ``ValueError`` if only some do."""
        try:
            return cls(tuple(tokens))
        except (TypeError, AlignmentError):  # TypeError: the check compared a None origin
            missing = sum(origin is None for _, origin in tokens)
            if not missing:
                raise
        if missing < len(tokens):
            raise ValueError(_MIXED)
        return cls(tuple((token, i) for i, (token, _) in enumerate(tokens)))


_LEXEME = re.compile(r"[()]|" + _SYMBOL.pattern)  # scan_ptb's lexemes, found with their positions


def scan_ptb(text: str, *, build: bool = True, close: Callable[[str, list], object] | None = None
             ) -> tuple[list[str], TreeNode | None]:
    """The leaves' tokens of one bracketed tree ``(LABEL child ...)`` / ``(TAG token)``
    and, if ``build``, the tree (leaf origins 0..n-1 in order), else None and no node
    made; ``close(label, kids)``, if given, may reorder ``kids`` in place as each
    internal node's bracket closes. One loop over the line's lexemes (``str.split``);
    malformed input raises :class:`TreeParseError` with a byte offset, in both modes."""
    lex = text.replace("(", " ( ").replace(")", " ) ").split()
    lex.append("")  # the end of input; no lexeme is empty, and "" in "()" holds
    if lex[0] != "(":
        raise _rejected(text, 0, "expected '(', found {}", "empty input")
    new = _new  # a local: this loop runs once per node of every tree read
    tokens: list[str] = []
    stack: list = []  # the enclosing open nodes' (label, children so far)
    label_open = kids = node = None  # the innermost open node's label and children so far
    depth = i = 0  # lex[i] is the "(" of the next node
    while True:
        label = lex[i + 1]
        if label in "()":
            raise _rejected(text, i + 1, "expected node label, found {}",
                            "expected node label, found end of input")
        token = lex[i + 2]
        if token in "()":
            if token != "(":
                raise _rejected(text, i + 2, "expected token or child, found {}")
            depth += 1
            if build:
                stack.append((label_open, kids))
                label_open, kids = label, []
            i += 2
            continue
        if lex[i + 3] != ")":
            raise _rejected(text, i + 3, "leaf cannot have children" if lex[i + 3] == "("
                            else "expected ')' after token, found {}")
        if build:
            node = new(TreeNode, (label, (), token, len(tokens)))
        tokens.append(token)
        i += 4
        while depth:
            if build:
                kids.append(node)
            if lex[i] == "(":
                break
            if lex[i] != ")":
                raise _rejected(text, i, "expected ')' , found {}")
            depth -= 1
            if build:
                if close is not None:
                    close(label_open, kids)
                node = new(TreeNode, (label_open, tuple(kids), None, None))
                label_open, kids = stack.pop()
            i += 1
        else:
            if lex[i]:
                raise _rejected(text, i, "trailing content after tree")
            return tokens, node


def parse_ptb(text: str) -> TreeNode:
    """Parse one bracketed tree, leaf origins 0..n-1 in order (see :func:`scan_ptb`)."""
    return scan_ptb(text)[1]


def _rejected(text: str, k: int, message: str,
              at_end: str = "unbalanced brackets: unexpected end of input") -> TreeParseError:
    """The error at the ``k``-th lexeme of ``text``: ``message`` with the lexeme's first
    character for ``{}``, or ``at_end`` if there are only ``k``; its UTF-8 byte offset."""
    found = next(islice(_LEXEME.finditer(text), k, None), None)
    pos = found.start() if found else len(text)
    message = message.format(repr(text[pos])) if found else at_end
    return TreeParseError(message, len(text[:pos].encode("utf-8")))


def with_children(node: TreeNode, kids: Sequence[TreeNode]) -> TreeNode:
    """``node`` itself when ``kids`` are its own children, else a copy with ``kids``."""
    if len(kids) == len(node.children) and all(map(is_, kids, node.children)):
        return node
    return _new(TreeNode, (node.label, tuple(kids), None, None))


def write_tree(tree: TreeNode, text: bool) -> tuple[str, list[tuple[str, int | None]]]:
    """In one pre-order walk, the canonical single-space form of ``tree`` if ``text``
    (else "") and each leaf's ``(token, origin)``, listed as the leaf is written."""
    parts, tokens = [], []
    stack: list = [tree]
    while stack:
        node = stack.pop()
        if node is None:  # the end of an internal node
            parts.append(")")
        elif node.token is None:
            if text:
                parts.append(" (" + node.label)
                stack.append(None)
            stack += node.children[::-1]
        else:
            tokens.append((node.token, node.origin))
            if text:
                parts.append(f" ({node.label} {node.token})")
    return "".join(parts)[1:], tokens  # every node's text starts with a space


def serialize(tree: TreeNode) -> str:
    """Canonical single-space form; ``parse_ptb(serialize(t))`` equals ``t``."""
    return write_tree(tree, True)[0]


def iter_nodes(tree: TreeNode) -> Iterator[TreeNode]:
    """Pre-order traversal."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def yield_sentence(tree: TreeNode) -> Sentence:
    """Left-to-right leaf sequence with carried (or fresh) origins: :meth:`Sentence.of_leaves`."""
    return Sentence.of_leaves(write_tree(tree, False)[1])


# Lines with no symbol content: blank lines and empty-bracket placeholders
# such as "(())" that some exporters leave behind for unparsed sentences.
_NON_TREE_LINE = re.compile(r"^[\s()]*$")


def scan_line(line: str, *, build: bool = True, close: Callable[[str, list], object] | None = None
              ) -> tuple[str | None, list[str], TreeNode | None]:
    """One treebank line, as read without its newline: ``("blank", [], None)`` for
    whitespace only, ``("placeholder", [], None)`` for brackets and whitespace only,
    else ``(None, tokens, tree)`` from :func:`scan_ptb` on the line as it is, so a
    :class:`TreeParseError`'s byte offset counts from the line's first byte."""
    if _NON_TREE_LINE.match(line):
        return "placeholder" if line.strip() else "blank", [], None
    return (None, *scan_ptb(line, build=build, close=close))


def read_treebank(path: str) -> Iterator[TreeNode]:
    """The trees of a file in order, skipping blank and placeholder lines, read
    as iterated. A malformed line raises :class:`TreeParseError` as
    ``PATH:LINE: reason`` when iteration reaches it; an unreadable file
    raises ``PipelineError`` as ``cannot read PATH...``.
    """
    for _, lineno, line in read_lines([path]):
        try:
            skipped, _, tree = scan_line(line)
        except TreeParseError as exc:
            exc.args = (f"{path}:{lineno}: {exc}",)
            raise
        if not skipped:
            yield tree


def write_treebank(path: str, trees: Iterable[TreeNode]) -> None:
    """One serialized tree per line; the file replaces ``path`` only once every tree is written."""
    with replace_on_success(path) as (fh,):
        for tree in trees:
            fh.write(serialize(tree) + "\n")
