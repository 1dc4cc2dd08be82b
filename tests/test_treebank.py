from __future__ import annotations

import random
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treelab import treebank
from treelab.files import PipelineError
from treelab.treebank import (
    AlignmentError,
    Sentence,
    TreeNode,
    TreeParseError,
    escape_symbol,
    iter_nodes,
    leaf,
    parse_ptb,
    read_treebank,
    scan_ptb,
    serialize,
    write_tree,
    write_treebank,
    yield_sentence,
)
from treelab.rng import run_streams
from treelab.transform import AblationSpec, apply_reorder, constituent_shuffle, remove_composition

from conftest import random_tree, tree_nodes
from helpers import internal, iter_leaves, reference_equal, reference_serialize, reference_yield

NESTED = "(S (NP (PRP I)) (VP (VBD read) (NP (CD two) (NNS papers))))"
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "english_like.trees"


class TestEscape:
    def test_parentheses(self):
        assert escape_symbol("(") == "-LRB-"
        assert escape_symbol(")") == "-RRB-"
        assert escape_symbol("a(b)c") == "a-LRB-b-RRB-c"

    def test_whitespace(self):
        assert escape_symbol("a b") == "a-SPC-b"
        assert escape_symbol("a\tb\nc") == "a-SPC-b-SPC-c"

    def test_plain_text_untouched(self):
        for text in ("word", "-LRB-", "năo", "a-b", ""):
            assert escape_symbol(text) == text

    def test_idempotent(self):
        for text in ("(", "a b", "x(y) z"):
            once = escape_symbol(text)
            assert escape_symbol(once) == once


class TestTreeNode:
    def test_leaf_and_internal(self):
        n = leaf("NN", "stone")
        assert n.token == "stone" and n.children == ()
        parent = internal("NP", [n])
        assert parent.token is None and parent.children == (n,)

    def test_rejects_empty_label(self):
        with pytest.raises(ValueError):
            TreeNode("", (), "x")

    def test_rejects_token_with_children(self):
        child = leaf("NN", "x")
        with pytest.raises(ValueError):
            TreeNode("NP", (child,), "x")

    def test_rejects_childless_internal(self):
        with pytest.raises(ValueError):
            TreeNode("NP", ())
        with pytest.raises(ValueError):
            internal("NP", [])

    def test_factories_escape(self):
        assert leaf("NN", "(").token == "-LRB-"
        assert internal("N P", [leaf("NN", "x")]).label == "N-SPC-P"
        made = leaf("A B", "x(y")
        assert (made.label, made.token) == ("A-SPC-B", "x-LRB-y")
        assert serialize(made) == "(A-SPC-B x-LRB-y)"

    @pytest.mark.parametrize("label, children, token", [
        ("NP (DT x)", (leaf("NN", "dog"),), None),
        ("A B", (leaf("NN", "paper"),), None),
        ("NN", (), "a b"),
        ("NN", (), ""),
        ("NN", (), "x)"),
        ("N\u00a0N", (), "x"),  # whitespace to str.split, so to the scanner
        ("(", (), "x"),
    ])
    def test_rejects_a_label_or_token_that_would_not_read_back(self, label, children, token):
        with pytest.raises(ValueError, match=" is empty or holds whitespace or a parenthesis$"):
            TreeNode(label, children, token)

    def test_leaf_and_replace_check_what_they_make(self):
        for label, token in [("", "x"), ("NN", "")]:
            with pytest.raises(ValueError, match="is empty"):
                leaf(label, token)
        with pytest.raises(ValueError, match="holds whitespace"):
            leaf("NN", "x")._replace(token="a b")

    def test_origin_ignored_by_equality(self):
        assert leaf("NN", "x", origin=0) == leaf("NN", "x", origin=5)
        assert leaf("NN", "x") != leaf("NN", "y")


class TestParse:
    def test_nested_tree(self):
        tree = parse_ptb(NESTED)
        assert tree.label == "S"
        assert [n.token for n in iter_leaves(tree)] == ["I", "read", "two", "papers"]
        assert [n.origin for n in iter_leaves(tree)] == [0, 1, 2, 3]

    def test_single_leaf_sentence(self):
        tree = parse_ptb("(S (UH hello))")
        assert tree.children[0].token == "hello"

    def test_unary_chain_preserved(self):
        tree = parse_ptb("(S (X (Y (Z (NN deep)))))")
        assert serialize(tree) == "(S (X (Y (Z (NN deep)))))"

    def test_extra_whitespace_normalized(self):
        assert serialize(parse_ptb("( S   ( NN\tx ) )")) == "(S (NN x))"

    def test_escaped_atoms_preserved(self):
        tree = parse_ptb("(S (-LRB- -LRB-) (NN x))")
        assert tree.children[0].label == "-LRB-"
        assert tree.children[0].token == "-LRB-"

    @pytest.mark.parametrize(
        "text,fragment,offset",
        [
            ("", "empty input", 0),
            ("   ", "empty input", 3),
            ("x", "expected '('", 0),
            ("(S", "unexpected end of input", 2),
            ("((X y))", "expected node label", 1),
            ("()", "expected node label", 1),
            ("(S (NP (NN x))", "unexpected end of input", 14),
            ("(S x) extra", "trailing content", 6),
            ("(T tok (X y))", "leaf cannot have children", 7),
            ("(X (Y z) w)", "expected ')'", 9),
        ],
    )
    def test_errors_with_offsets(self, text, fragment, offset):
        with pytest.raises(TreeParseError) as err:
            parse_ptb(text)
        assert fragment in str(err.value)
        assert err.value.offset == offset

    def test_offsets_are_utf8_bytes(self):
        # "ǎ" occupies two bytes; the reported offset counts them both.
        with pytest.raises(TreeParseError) as err:
            parse_ptb("(S (X ǎ)")
        assert err.value.offset == 9


@given(tree_nodes())
def test_serialize_parse_round_trip(tree):
    assert parse_ptb(serialize(tree)) == tree


@given(tree_nodes())
def test_serialized_form_is_canonical(tree):
    text = serialize(tree)
    assert "  " not in text
    assert serialize(parse_ptb(text)) == text


def test_iter_nodes_preorder():
    tree = parse_ptb("(S (A (B b) (C c)) (D d))")
    assert [n.label for n in iter_nodes(tree)] == ["S", "A", "B", "C", "D"]


class TestOrigins:
    """``apply_reorder`` with no rules only settles the leaves' origins."""

    def test_no_rules_assigns_left_to_right(self):
        tree = internal("S", [leaf("A", "x"), internal("B", [leaf("C", "y")])])
        tagged = apply_reorder(tree, [])
        assert [n.origin for n in iter_leaves(tagged)] == [0, 1]

    def test_no_rules_keeps_present_origins(self):
        tree = parse_ptb(NESTED)
        assert apply_reorder(tree, []) is tree

    def test_mixed_rejected(self):
        tree = internal("S", [leaf("A", "x", origin=0), leaf("B", "y")])
        with pytest.raises(ValueError, match="^tree mixes leaves with and without origin indices$"):
            apply_reorder(tree, [])
        with pytest.raises(ValueError, match="mixes"):
            yield_sentence(tree)

    def test_yield_sentence(self):
        sentence = yield_sentence(parse_ptb(NESTED))
        assert sentence.surfaces() == ("I", "read", "two", "papers")
        assert sentence.origins() == (0, 1, 2, 3)
        assert sentence.text() == "I read two papers"


def writer_cases() -> list[TreeNode]:
    """Random trees without origins, with carried origins, permuted by a shuffle
    and by an ablation, and with a shared subtree; and a 100 000-deep tree."""
    rng = run_streams(12)(0)
    trees = []
    for _ in range(60):
        raw = random_tree(rng, max_depth=6, max_children=4)
        trees += [raw, parse_ptb(serialize(raw)), constituent_shuffle(raw, rng),
                  remove_composition(raw, AblationSpec(0.5, True), rng), internal("S", [raw, raw])]
    depth = 100_000
    trees.append(parse_ptb("(X (A a) " * depth + "(B b)" + ")" * depth))
    return trees


def test_the_writer_gives_the_reference_text_and_tokens():
    for tree in writer_cases():
        sentence = reference_yield(tree)
        text, tokens = write_tree(tree, True)
        assert text == reference_serialize(tree) == serialize(tree)
        assert write_tree(tree, False) == ("", tokens)
        assert Sentence.of_leaves(tokens) == sentence == yield_sentence(tree)
        assert [token for token, _ in tokens] == [node.token for node in iter_leaves(tree)]
        assert [origin for _, origin in tokens] == [node.origin for node in iter_leaves(tree)]


def edited(tree: TreeNode, symbol: str, k: int) -> TreeNode:
    """``tree`` with an ``x`` added to the ``k``-th (modulo their count) label or
    token of its line, as ``symbol`` says, read back."""
    pattern = r"\(([^\s()]+)" if symbol == "label" else r" ([^\s()]+)\)"
    text = serialize(tree)
    ends = [match.end(1) for match in re.finditer(pattern, text)]
    at = ends[k % len(ends)]
    return parse_ptb(text[:at] + "x" + text[at:])


def test_equality_and_hash_agree_with_the_structural_reference():
    """``==``, ``!=`` and ``hash`` against a walk of their own, on every writer case
    paired with itself, with its neighbour, with its line read back (new origins),
    with one label or one token changed, with one child more or fewer at the root,
    and, below a new root, a shared subtree against its copy. (The deep case is
    compared in ``test_deep_trees``.)"""
    *trees, _ = writer_cases()
    pairs = []
    for i, tree in enumerate(trees):
        neighbour, copy = trees[i - 1], parse_ptb(serialize(tree))
        pairs += [(tree, tree), (tree, neighbour), (tree, copy),
                  (tree, edited(tree, "label", i)), (tree, edited(tree, "token", i)),
                  (internal("S", [tree, tree]), internal("S", [tree, copy]))]
        if tree.token is None:
            pairs.append((tree, TreeNode(tree.label, tree.children + (leaf("NN", "more"),))))
            if len(tree.children) > 1:
                pairs.append((tree, TreeNode(tree.label, tree.children[1:])))
    outcomes = []
    for a, b in pairs:
        same = reference_equal(a, b)
        assert (a == b) is same and (b == a) is same and (a != b) is (not same)
        assert not same or hash(a) == hash(b)
        outcomes.append(same)
    assert outcomes.count(True) > 600 and outcomes.count(False) > 600


def test_a_tree_is_never_equal_to_a_plain_tuple():
    tree = parse_ptb(NESTED)
    assert tree != tuple(tree) and tuple(tree) != tree and not tree == tuple(tree)


class TestSentence:
    def test_of_leaves_without_origins_numbers_them_in_order(self):
        s = Sentence.of_leaves([("a", None), ("b", None), ("a", None)])
        assert s.tokens == (("a", 0), ("b", 1), ("a", 2))
        assert len(s) == 3

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Sentence((("a", 0), ("b", 0)))
        with pytest.raises(ValueError):
            Sentence((("a", 1), ("b", 2)))

    def test_empty_ok(self):
        assert len(Sentence(())) == 0

    @pytest.mark.parametrize("tokens, error, text", [
        ([("a", 0), ("b", None)], ValueError, "tree mixes leaves with and without origin indices"),
        ([("a", None), ("b", 0)], ValueError, "tree mixes leaves with and without origin indices"),
        ([("a", 5), ("b", None)], ValueError, "tree mixes leaves with and without origin indices"),
        ([("a", 0), ("b", 0)], AlignmentError, "origin indices must be a permutation of 0..n-1"),
        ([("a", 1), ("b", 2)], AlignmentError, "origin indices must be a permutation of 0..n-1"),
    ])
    def test_of_leaves_errors(self, tokens, error, text):
        with pytest.raises(error) as info:
            Sentence.of_leaves(tokens)
        assert type(info.value) is error and str(info.value) == text

    def test_of_leaves_checks_carried_origins_once(self, monkeypatch):
        """Carried origins are checked once; leaves without any get 0..n-1."""
        calls = []
        real = treebank.is_permutation
        monkeypatch.setattr(treebank, "is_permutation", lambda v: calls.append(v) or real(v))
        assert Sentence.of_leaves([("a", 1), ("b", 0)]).tokens == (("a", 1), ("b", 0))
        assert calls == [[1, 0]]
        assert Sentence.of_leaves([("a", None), ("b", None)]) == Sentence((("a", 0), ("b", 1)))
        assert Sentence.of_leaves([]) == Sentence(())


class TestReader:
    def test_skips_placeholders(self, tmp_path):
        path = tmp_path / "corpus.trees"
        path.write_text("(S (NN x))\n\n(())\n  \n( ( ) )\n(S (NN y))\n")
        assert list(read_treebank(str(path))) == [parse_ptb("(S (NN x))"), parse_ptb("(S (NN y))")]

    def test_propagates_parse_errors(self, tmp_path):
        path = tmp_path / "corpus.trees"
        path.write_text("(S (NN x))\n(S (NN\n")
        with pytest.raises(TreeParseError):
            list(read_treebank(str(path)))

    def test_parse_error_names_file_line_and_offset(self, tmp_path):
        path = tmp_path / "corpus.trees"
        path.write_text("\n(S (NP a))\n(S (NP b)\n", encoding="utf-8")
        with pytest.raises(TreeParseError) as caught:
            list(read_treebank(str(path)))
        assert str(caught.value) == (
            f"{path}:3: unbalanced brackets: unexpected end of input (byte offset 9)"
        )
        assert caught.value.offset == 9

    def test_trees_come_as_iterated(self, tmp_path):
        path = tmp_path / "corpus.trees"
        path.write_text("(S (NN x))\n(S (NN y))\n(S (NN\n", encoding="utf-8")
        trees = read_treebank(str(path))
        assert next(trees) == parse_ptb("(S (NN x))")
        assert next(trees) == parse_ptb("(S (NN y))")
        with pytest.raises(TreeParseError, match=":3: "):
            next(trees)

    def test_file_round_trip(self, tmp_path):
        trees = [parse_ptb(NESTED), parse_ptb("(S (UH hi))")]
        path = tmp_path / "corpus.trees"
        write_treebank(str(path), trees)
        assert list(read_treebank(str(path))) == trees
        assert path.read_text().count("\n") == 2

    def test_non_utf8_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "latin1.trees"
        path.write_bytes(b"(S (NN x))\n(S (NN caf\xe9))\n")
        with pytest.raises(PipelineError) as caught:
            list(read_treebank(str(path)))
        assert str(caught.value) == (
            f"cannot read {path}:2: 'utf-8' codec can't decode byte 0xe9 in position 10: "
            "invalid continuation byte"
        )

    def test_write_that_fails_part_way_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "corpus.trees"
        path.write_text("(S (UH old))\n")

        def trees():
            yield parse_ptb(NESTED)
            raise RuntimeError("no second tree")

        with pytest.raises(RuntimeError):
            write_treebank(str(path), trees())
        assert path.read_text() == "(S (UH old))\n"
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.trees"]


def reference_tokens(text: str):
    """What ``stats`` read from a tree line before the token scan: the
    surfaces of the parsed tree's yield, or the parse error and its offset."""
    try:
        return list(yield_sentence(parse_ptb(text)).surfaces())
    except TreeParseError as exc:
        return str(exc), exc.offset


def scanned(text: str, build: bool):
    try:
        tokens, tree = scan_ptb(text, build=build)
    except TreeParseError as exc:
        return str(exc), exc.offset
    if build:
        assert tree == parse_ptb(text)
        assert [node.origin for node in iter_leaves(tree)] == list(range(len(tokens)))
    else:
        assert tree is None
    return tokens


def mutations(lines: list[str], count: int, seed: int) -> list[str]:
    """Seeded edits of real tree lines: drop, insert or duplicate a bracket,
    a space or a character, or truncate."""
    rnd = random.Random(seed)
    out = []
    for _ in range(count):
        line = rnd.choice(lines)
        i = rnd.randrange(len(line) + 1)
        kind = rnd.randrange(4)
        if kind == 0:
            line = line[:i] + line[i + 1:]
        elif kind == 1:
            line = line[:i] + rnd.choice("() \tx") + line[i:]
        elif kind == 2:
            line = line[:i] + line[i:i + 1] + line[i:]
        else:
            line = line[:i]
        out.append(line)
    return out


EDGE_CASES = [
    "", "  ", "x", "(", "()", "(A", "(A b", "(A b)", "(A b) )", "(A b)x", "(A b c)",
    "(A (B c)", "(A (B c)))", "(A (B c) d)", "(A (B c) (", "(A (B c)) (D e)", "((A b))",
    "(A ( B c ) )", "(A (B c)\t)\n", "(A (B ǎ)) )",
]


class TestScan:
    """The token scan gives what parse + yield gave: the same tokens, or the
    same error at the same byte offset."""

    LINES = FIXTURE.read_text(encoding="utf-8").splitlines()

    @pytest.mark.parametrize("build", [False, True])
    def test_fixture_lines(self, build):
        for line in self.LINES:
            assert scanned(line, build) == reference_tokens(line), line

    @pytest.mark.parametrize("build", [False, True])
    def test_seeded_mutations(self, build):
        cases = mutations(self.LINES, 3000, seed=11)
        errors = 0
        for line in cases:
            want = reference_tokens(line)
            errors += isinstance(want, tuple)
            assert scanned(line, build) == want, line
        assert 1000 < errors < len(cases)  # both outcomes are exercised

    @pytest.mark.parametrize("text", EDGE_CASES)
    def test_edge_cases(self, text):
        want = reference_tokens(text)
        assert scanned(text, False) == want
        assert scanned(text, True) == want

    @given(tree_nodes(), st.sampled_from(["", " ", "  \t"]))
    def test_generated_trees(self, tree, pad):
        text = pad + serialize(tree).replace(" (", pad + " (") + pad
        assert scanned(text, False) == scanned(text, True) == reference_tokens(text)


# The scanner as it was before it split lines into lexemes: one regex match
# per leaf, opening and closing bracket. Kept as the oracle of its tokens,
# trees, error messages and byte offsets.
_WS = re.compile(r"\s*")
_ATOM = re.compile(r"[^\s()]+")
_OPEN = re.compile(r"\(\s*([^\s()]+)(?:\s+([^\s()]+)\s*\))?\s*")


def _offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def regex_scan(text: str, build: bool) -> tuple[list[str], TreeNode | None]:
    n = len(text)
    pos = _WS.match(text).end()
    if pos == n:
        raise TreeParseError("empty input", _offset(text, pos))
    if text[pos] != "(":
        raise TreeParseError(f"expected '(', found {text[pos]!r}", _offset(text, pos))
    tokens: list[str] = []
    stack: list = []
    label_open = kids = node = None
    depth = 0
    while True:
        m = _OPEN.match(text, pos)
        if m is None:
            pos = _WS.match(text, pos + 1).end()
            what = "end of input" if pos == n else repr(text[pos])
            raise TreeParseError(f"expected node label, found {what}", _offset(text, pos))
        label, token = m.groups()
        pos = m.end()
        if token is None:
            if pos < n and text[pos] == "(":
                depth += 1
                if build:
                    stack.append((label_open, kids))
                    label_open, kids = label, []
                continue
            raise regex_bad_leaf(text, pos)
        if build:
            node = TreeNode(label, (), token, len(tokens))
        tokens.append(token)
        while depth:
            if build:
                kids.append(node)
            if pos == n:
                raise TreeParseError("unbalanced brackets: unexpected end of input", _offset(text, pos))
            if text[pos] == "(":
                break
            if text[pos] != ")":
                raise TreeParseError(f"expected ')' , found {text[pos]!r}", _offset(text, pos))
            depth -= 1
            if build:
                node = TreeNode(label_open, tuple(kids))
                label_open, kids = stack.pop()
            pos = _WS.match(text, pos + 1).end()
        else:
            if pos < n:
                raise TreeParseError("trailing content after tree", _offset(text, pos))
            return tokens, node


def regex_bad_leaf(text: str, pos: int) -> TreeParseError:
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
    return TreeParseError(message, _offset(text, end))


def outcome(scan, text: str, build: bool):
    """Tokens and the tree with its origins (``repr``), or the error text and offset."""
    try:
        tokens, tree = scan(text, build=build)
    except TreeParseError as exc:
        return str(exc), exc.offset
    return tokens, repr(tree)


class TestScanAgainstRegexScanner:
    """The lexeme loop gives what the regex scanner gave, line for line."""

    @staticmethod
    def agree(text: str, *builds: bool) -> None:
        for build in builds:
            assert outcome(scan_ptb, text, build) == outcome(regex_scan, text, build), repr(text)

    @pytest.mark.parametrize("build", [False, True])
    def test_fixture_lines(self, build):
        for line in TestScan.LINES:
            self.agree(line, build)

    @pytest.mark.parametrize("build", [False, True])
    def test_seeded_mutations(self, build):
        for line in mutations(TestScan.LINES, 3000, seed=11):
            self.agree(line, build)

    @pytest.mark.parametrize("text", EDGE_CASES)
    def test_edge_cases(self, text):
        self.agree(text, False, True)

    # Brackets, atoms, and whitespace that str.split and re's \s both know:
    # tab, U+001C, U+0085, U+3000; and a two-byte character for the offsets.
    @given(st.text(alphabet="() ab\t\x1c\x85\u3000ǎ", max_size=40))
    def test_generated_text(self, text):
        self.agree(text, False, True)

    @given(st.lists(st.sampled_from(["(", ")", " ", "ab", "\x85", "\u3000", "ǎ"]), max_size=30))
    def test_generated_lexemes(self, parts):
        self.agree("(" + "".join(parts), False, True)
