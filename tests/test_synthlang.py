from __future__ import annotations

import collections
import gc
import itertools
import re

import pytest

from helpers import MASK64, CountingRng, internal, parse_alignment, seed_drawing, weighted_index
from treelab import synthlang
from treelab.rng import Rng, run_streams
from treelab.synthlang import (
    DEMO_GRAMMAR_TEXT,
    DEPTH_DECAY,
    MAX_DEPTH,
    MAX_RETRIES,
    OrderProfile,
    ParallelCorpus,
    Production,
    SynthError,
    SynthGrammar,
    corpus_pairs,
    delta_rules,
    demo_grammar,
    format_alignment,
    lexicon_map,
    parse_grammar,
    sample_lines,
    sample_pair,
    translate_tree,
    write_corpus,
)
from treelab.transform import BUILTIN_RULES, apply_reorder, inverse_rule
from treelab.treebank import iter_nodes, leaf, read_treebank, serialize, yield_sentence


def surfaces(tree):
    return yield_sentence(tree).surfaces()


def origins(tree):
    return yield_sentence(tree).origins()


def tree_depth(node) -> int:
    if node.token is not None:
        return 0
    return 1 + max(tree_depth(c) for c in node.children)


class TestProfiles:
    def test_defaults_are_canonical(self):
        profile = OrderProfile()
        assert profile.as_features() == {"83A": "VO", "85A": "Pre", "87A": "AN"}

    def test_from_features_merges_defaults(self):
        profile = OrderProfile.from_features({"83A": "OV"})
        assert profile.verb_object == "OV"
        assert profile.adposition == "Pre"
        assert profile.adjective_noun == "AN"

    def test_bad_value_rejected(self):
        with pytest.raises(SynthError, match="83A"):
            OrderProfile(verb_object="X")

    def test_unknown_feature_rejected(self):
        with pytest.raises(SynthError, match="unknown order feature"):
            OrderProfile.from_features({"99Z": "VO"})


class TestGrammarValidation:
    def test_demo_grammar_shape(self):
        g = demo_grammar()
        assert g.start == "S"
        assert g.languages == ("alpha", "beta")
        assert set(next(iter(g.lexicons.values()))) == {"PRP", "VB", "NN", "JJ", "IN"}
        assert g.nonterminals == {"S", "VP", "NP", "PP"}

    def test_recursive_productions(self):
        g = demo_grammar()
        recursive = {(p.lhs, p.rhs) for p in g.recursive_productions()}
        assert recursive == {("NP", ("NP", "PP")), ("PP", ("IN", "NP"))}

    def test_production_validation(self):
        with pytest.raises(SynthError, match="empty right-hand side"):
            Production("X", ())
        with pytest.raises(SynthError, match="weight must be finite and > 0"):
            Production("X", ("Y",), 0.0)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "1e400", "-0"])
    def test_a_weight_that_is_not_finite_and_positive_is_refused(self, weight):
        """NaN passes ``weight <= 0``, and an infinite weight would decide every draw."""
        with pytest.raises(SynthError, match=r"^production X -> Y: weight must be finite and > 0$"):
            Production("X", ("Y",), float(weight))
        text = ("language a\nlanguage b\nrule S -> NN\nrule S -> JJ : %s\n"
                "lex a NN n\nlex a JJ j\nlex b NN m\nlex b JJ k\n" % weight)
        with pytest.raises(SynthError) as caught:
            parse_grammar(text, origin="g.grammar")
        assert str(caught.value) == "g.grammar:4: production S -> JJ: weight must be finite and > 0"

    @pytest.mark.parametrize(
        "rhs", ["VP -> NP VB", "PP -> NP IN", "NP -> NN JJ", "VP -> NP VBD", "PP -> NPS IN"]
    )
    def test_anti_canonical_rhs_rejected(self, rhs):
        """Both children match by prefix, ``NPS`` for ``NP`` too."""
        text = (
            "language a\n"
            f"rule S -> NN\nrule S -> NPS\nrule {rhs}\n"
            "lex a NN n\nlex a VB v\nlex a VBD w\nlex a JJ j\nlex a IN p\nlex a NPS q\n"
            "rule VP -> VB\nrule NP -> NN\nrule PP -> IN\n"
        )
        with pytest.raises(SynthError, match="against the canonical order"):
            parse_grammar(text)

    def test_mismatched_preterminal_sets(self):
        text = (
            "language a\nlanguage b\n"
            "rule S -> NN\n"
            "lex a NN x\nlex a VB v\n"
            "lex b NN y\n"
        )
        with pytest.raises(SynthError, match="different preterminals"):
            parse_grammar(text)

    def test_mismatched_word_counts(self):
        text = (
            "language a\nlanguage b\n"
            "rule S -> NN\n"
            "lex a NN one two\n"
            "lex b NN uno\n"
        )
        with pytest.raises(SynthError, match="concepts cannot align"):
            parse_grammar(text)

    def test_duplicate_word_within_language(self):
        text = (
            "language a\n"
            "rule S -> NN VB\n"
            "lex a NN walk\nlex a VB walk\n"
        )
        with pytest.raises(SynthError, match="appears under two preterminals"):
            parse_grammar(text)

    def test_unknown_rhs_symbol(self):
        text = "language a\nrule S -> ZZ\nlex a NN x\n"
        with pytest.raises(SynthError, match="neither"):
            parse_grammar(text)

    def test_start_needs_a_production(self):
        text = "language a\nstart T\nrule S -> NN\nlex a NN x\n"
        with pytest.raises(SynthError, match="start symbol T"):
            parse_grammar(text)

    def test_symbol_cannot_be_both(self):
        text = "language a\nrule S -> NN\nrule NN -> S\nlex a NN x\n"
        with pytest.raises(SynthError, match="both expanded and lexicalized"):
            parse_grammar(text)


class TestGrammarFile:
    def test_demo_text_parses_reproducibly(self):
        assert parse_grammar(DEMO_GRAMMAR_TEXT) == parse_grammar(DEMO_GRAMMAR_TEXT)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("frobnicate S", "unknown directive 'frobnicate'"),
            ("start", "expected 'start SYMBOL'"),
            ("language", "expected 'language TAG [FEATURE=VALUE ...]'"),
            ("language b 83A:VO", "expected FEATURE=VALUE, got '83A:VO'"),
            ("rule S NP VP", "expected 'rule LHS -> RHS... [: WEIGHT]'"),
            ("rule S -> NP : x", "bad weight 'x'"),
            ("rule S -> NP : 1 2", "expected a single weight after ':'"),
            ("lex a NN", "expected 'lex LANGUAGE PRETERMINAL WORD...'"),
            ("lex ghost NN word", "language ghost not declared"),
            ("language b 83A=XX", "feature 83A must be one of ('VO', 'OV'), got 'XX'"),
            ("rule S -> NP : 0", "production S -> NP: weight must be finite and > 0"),
            ("language a", "language a declared twice"),
            ("lex a NN x\nlex a NN x", "lexicon for a/NN given twice"),
        ],
    )
    def test_parse_errors_carry_location(self, line, message):
        """The whole message: the failing line's location, once, then what is wrong."""
        text = "language a\n" + line + "\n"
        with pytest.raises(SynthError) as err:
            parse_grammar(text, origin="g.txt")
        assert str(err.value) == f"g.txt:{2 + line.count(chr(10))}: {message}"

    def test_duplicate_language(self):
        with pytest.raises(SynthError, match="declared twice"):
            parse_grammar("language a\nlanguage a\n")

    def test_duplicate_lexicon_block(self):
        text = "language a\nrule S -> NN\nlex a NN x\nlex a NN y\n"
        with pytest.raises(SynthError, match="given twice"):
            parse_grammar(text)

    def test_comments_and_blanks_ignored(self):
        g = parse_grammar("# c\n\nlanguage a\nrule S -> NN\n  # c2\nlex a NN x\n")
        assert g.languages == ("a",)

    def test_a_hash_starts_a_comment_anywhere_on_a_line(self):
        g = parse_grammar(
            "language a  # the only one\nrule S -> VP\nrule VP -> VB  # intransitive\n"
            "lex a VB go stop#nouns\n"
        )
        assert g.productions[1].rhs == ("VB",)
        assert g.lexicons["a"]["VB"] == ("go", "stop")

    @pytest.mark.parametrize(
        "separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_file_errors_count_lines_as_the_reader_does(self, tmp_path, separator):
        path = tmp_path / "ff.grammar"
        path.write_text(f"# header{separator} page two\nlanguage a\nrule S -> NN\nlex a NN x\nbogus\n",
                        encoding="utf-8")
        with pytest.raises(SynthError, match=r"ff\.grammar:5: unknown directive 'bogus'"):
            synthlang.load_grammar(str(path))


# One rule per nonterminal and one word per preterminal: every seed gives
# the same tree.
FIXED_GRAMMAR = """\
language alpha
language beta 83A=OV 85A=Post 87A=NA
rule S -> NP VP PP
rule VP -> VB NP
rule PP -> IN NP
rule NP -> JJ NN
lex alpha JJ red
lex alpha NN cat
lex alpha VB sees
lex alpha IN on
lex beta JJ akai
lex beta NN neko
lex beta VB miru
lex beta IN ue
"""


class TestLinearize:
    def test_mirror_profile_flips_every_pair(self):
        side_a, side_b, alignment = sample_pair(parse_grammar(FIXED_GRAMMAR), Rng(0))
        assert surfaces(side_a) == ("red", "cat", "sees", "red", "cat", "on", "red", "cat")
        assert origins(side_a) == (0, 1, 2, 3, 4, 5, 6, 7)
        assert serialize(side_b) == (
            "(S (NP (NN neko) (JJ akai)) (VP (NP (NN neko) (JJ akai)) (VB miru))"
            " (PP (NP (NN neko) (JJ akai)) (IN ue)))"
        )
        assert origins(side_b) == (1, 0, 4, 3, 2, 7, 6, 5)
        assert alignment == ((0, 1), (1, 0), (2, 4), (3, 3), (4, 2), (5, 7), (6, 6), (7, 5))

    def test_identical_language_settings_give_identical_trees(self):
        text = (
            "language a\nlanguage b\n"
            "rule S -> NP VP\nrule VP -> VB NP\nrule NP -> NN\nrule NP -> JJ NN\n"
            "lex a NN cat dog\nlex a VB sees likes\nlex a JJ big\n"
            "lex b NN cat dog\nlex b VB sees likes\nlex b JJ big\n"
        )
        g = parse_grammar(text)
        for i in range(30):
            a, b, alignment = sample_pair(g, run_streams(3)(i))
            assert serialize(a) == serialize(b)
            assert origins(a) == origins(b)
            assert alignment == tuple((k, k) for k in range(len(alignment)))

    def test_unknown_language(self):
        with pytest.raises(SynthError, match="unknown language 'gamma'"):
            sample_pair(demo_grammar(), Rng(0), languages=("alpha", "gamma"))

    @pytest.mark.parametrize("feature, other", [("83A", "OV"), ("85A", "Post"), ("87A", "NA")])
    def test_swaps_are_the_builtin_rules_moves(self, feature, other):
        """Sampling and the built-in reorder rules state each feature on their
        own: a language with the feature's other value swaps a constituent
        exactly when the rule does, and the canonical profile swaps none."""
        profile = OrderProfile.from_features({feature: other})
        labels = ["VB", "VBD", "IN", "INX", "JJ", "JJR", "NN", "NNS", "NP", "NPS", "X"]
        for parent in ("VP", "PP", "NP", "S"):
            for first, second in itertools.product(labels, repeat=2):
                tree = internal(parent, [leaf(first, "a"), leaf(second, "b")])
                moved = serialize(apply_reorder(tree, BUILTIN_RULES[feature])) != serialize(tree)
                assert synthlang._swaps(parent, first, second, profile) == moved
                assert not synthlang._swaps(parent, first, second, OrderProfile())

    def test_sampling_leaves_no_reference_cycle(self):
        """Each call frees its pair's lists when it returns or raises: with the
        collector off, 100 pairs and 3 stranded derivations leave nothing for it."""
        g = demo_grammar()
        stranded = parse_grammar("language a\nlanguage b\nrule S -> X\nrule X -> X NN\n"
                                 "lex a NN n\nlex b NN m\n")

        def strand(i):
            try:
                sample_lines(stranded, run_streams(0)(i))
            except SynthError:
                return
            raise AssertionError("a derivation closed")

        gc.collect()
        gc.disable()
        try:
            for i in range(100):
                sample_lines(g, run_streams(0)(i))
            assert gc.collect() == 0
            for i in range(3):
                strand(i)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_copy_builds_its_own_plan(self):
        g = demo_grammar()
        copies = (g._replace(start="S"), SynthGrammar._make(tuple(g)), g._replace())
        for copy in copies:
            for i in range(8):
                assert sample_lines(copy, run_streams(0)(i)) == sample_lines(g, run_streams(0)(i))
        assert copies[0] == g and copies[0]._plan is not g._plan


class TestPairedSampling:
    def test_alignment_is_a_position_bijection(self):
        g = demo_grammar()
        for i in range(50):
            a, b, alignment = sample_pair(g, run_streams(17)(i))
            n = len(alignment)
            assert len(surfaces(a)) == len(surfaces(b)) == n
            assert sorted(i for i, _ in alignment) == list(range(n))
            assert sorted(j for _, j in alignment) == list(range(n))

    def test_alignment_links_translation_pairs(self):
        g = demo_grammar()
        mapping = lexicon_map(g, "alpha", "beta")
        for i in range(50):
            a, b, alignment = sample_pair(g, run_streams(29)(i))
            surf_a, surf_b = surfaces(a), surfaces(b)
            for pos_a, pos_b in alignment:
                assert mapping[surf_a[pos_a]] == surf_b[pos_b]

    def test_same_origin_marks_same_concept(self):
        g = demo_grammar()
        a, b, _ = sample_pair(g, run_streams(8)(0))
        mapping = lexicon_map(g, "alpha", "beta")
        word_at_a = {origin: tok for tok, origin in yield_sentence(a).tokens}
        word_at_b = {origin: tok for tok, origin in yield_sentence(b).tokens}
        assert set(word_at_a) == set(word_at_b)
        for origin, word in word_at_a.items():
            assert mapping[word] == word_at_b[origin]

    def test_depth_cap_is_respected(self, monkeypatch):
        g = demo_grammar()
        for i in range(20):
            a, _, _ = sample_pair(g, run_streams(32)(i))
            assert tree_depth(a) <= MAX_DEPTH + 1
        # A lower cap, set before the grammar's sampling plan is built.
        monkeypatch.setattr(synthlang, "MAX_DEPTH", 6)
        g = demo_grammar()
        for i in range(50):
            a, _, _ = sample_pair(g, run_streams(31)(i))
            assert tree_depth(a) <= 7

    def test_uncloseable_grammar_raises_after_retries(self, monkeypatch):
        text = (
            "language a\nlanguage b\n"
            "rule S -> X\nrule X -> X NN\n"
            "lex a NN n\nlex b NN m\n"
        )
        g = parse_grammar(text)
        with pytest.raises(SynthError, match=f"no derivation closed within depth {MAX_DEPTH} "
                                             f"after {MAX_RETRIES} attempts"):
            sample_pair(g, run_streams(0)(0))
        monkeypatch.setattr(synthlang, "MAX_DEPTH", 3)
        monkeypatch.setattr(synthlang, "MAX_RETRIES", 5)
        with pytest.raises(SynthError, match="no derivation closed within depth 3 after 5"):
            sample_pair(parse_grammar(text), run_streams(0)(0))

    def test_corpus_determinism_and_per_index_streams(self):
        g = demo_grammar()
        render = lambda seed: [
            (serialize(a), serialize(b), alignment)
            for a, b, alignment in corpus_pairs(g, 10, seed)[1]
        ]
        first = render(77)
        assert first == render(77)
        assert first != render(78)
        lone = sample_pair(g, run_streams(77)(4))
        assert first[4] == (serialize(lone[0]), serialize(lone[1]), lone[2])

    def test_corpus_size_validated(self):
        with pytest.raises(SynthError, match=">= 1"):
            corpus_pairs(demo_grammar(), 0, 1)

    def test_bag_of_concepts_is_preserved(self):
        g = demo_grammar()
        mapping = lexicon_map(g, "alpha", "beta")
        for a, b, _ in corpus_pairs(g, 30, 5)[1]:
            translated = collections.Counter(mapping[w] for w in surfaces(a))
            assert translated == collections.Counter(surfaces(b))


class TestDeltaOracle:
    def test_single_feature_delta_matches_reorder_rule(self):
        text = (
            "language a 83A=VO\nlanguage b 83A=OV\n"
            "rule S -> NP VP\nrule VP -> VB NP : 2\nrule VP -> VB\n"
            "rule NP -> NN\nrule NP -> JJ NN\n"
            "lex a NN cat dog\nlex a VB sees likes\nlex a JJ big\n"
            "lex b NN cat dog\nlex b VB sees likes\nlex b JJ big\n"
        )
        g = parse_grammar(text)
        rules = delta_rules(g, "a", "b")
        assert rules == (BUILTIN_RULES["83A"],)
        for i in range(60):
            a, b, _ = sample_pair(g, run_streams(13)(i))
            carried = apply_reorder(a, rules)
            assert serialize(carried) == serialize(b)
            assert origins(carried) == origins(b)

    def test_full_delta_with_translation_recovers_other_side(self):
        g = demo_grammar()
        rules = delta_rules(g, "alpha", "beta")
        assert [r.feature_id for r in rules] == ["83A", "85A", "87A"]
        for a, b, _ in corpus_pairs(g, 60, 23)[1]:
            carried = translate_tree(g, apply_reorder(a, rules), "alpha", "beta")
            assert serialize(carried) == serialize(b)
            assert origins(carried) == origins(b)

    def test_reverse_direction_uses_inverse_rules(self):
        g = demo_grammar()
        back = delta_rules(g, "beta", "alpha")
        assert back == tuple(
            inverse_rule(BUILTIN_RULES[f]) for f in ("83A", "85A", "87A")
        )
        for a, b, _ in corpus_pairs(g, 40, 41)[1]:
            carried = translate_tree(g, apply_reorder(b, back), "beta", "alpha")
            assert serialize(carried) == serialize(a)

    def test_no_delta_between_identical_profiles(self):
        g = demo_grammar()
        assert delta_rules(g, "alpha", "alpha") == ()

    @pytest.mark.parametrize("call", [
        delta_rules, lexicon_map, lambda g, *pair: corpus_pairs(g, 1, 0, pair),
    ])
    def test_unknown_language_is_named_with_the_grammars(self, call):
        with pytest.raises(SynthError) as caught:
            call(demo_grammar(), "gamma", "alpha")
        assert str(caught.value) == "unknown language 'gamma'; grammar has ['alpha', 'beta']"


class TestTranslation:
    def test_lexicon_maps_invert(self):
        g = demo_grammar()
        forward = lexicon_map(g, "alpha", "beta")
        backward = lexicon_map(g, "beta", "alpha")
        assert {v: k for k, v in forward.items()} == backward

    def test_translate_preserves_structure_and_origins(self):
        g = demo_grammar()
        a, _, _ = sample_pair(g, run_streams(2)(1))
        translated = translate_tree(g, a, "alpha", "beta")
        assert origins(translated) == origins(a)
        assert [n.label for n in translated.children] == [n.label for n in a.children]
        back = translate_tree(g, translated, "beta", "alpha")
        assert serialize(back) == serialize(a)

    def test_unknown_word_rejected(self):
        g = demo_grammar()
        rogue = internal("S", [leaf("NN", "zebra")])
        with pytest.raises(SynthError, match="'zebra' not in the alpha lexicon"):
            translate_tree(g, rogue, "alpha", "beta")

    def test_the_leftmost_of_two_unknown_words_is_named(self):
        rogue = internal("S", [internal("NP", [leaf("JJ", "red"), internal("NP", [leaf("NN", "zebra")])]),
                               leaf("NN", "yak")])
        with pytest.raises(SynthError) as caught:
            translate_tree(demo_grammar(), rogue, "alpha", "beta")
        assert str(caught.value) == "word 'zebra' not in the alpha lexicon"

    def test_a_bare_leaf(self):
        got = translate_tree(demo_grammar(), leaf("NN", "paper", origin=4), "alpha", "beta")
        assert repr(got) == repr(leaf("NN", "zhi", origin=4))
        assert repr(translate_tree(demo_grammar(), leaf("NN", "tree"), "alpha", "beta")) == repr(
            leaf("NN", "mu"))

    def test_leaves_without_origins_keep_none(self):
        tree = internal("S", [leaf("PRP", "i"), internal("VP", [leaf("VB", "see"), leaf("NN", "tree")]),
                              leaf("PRP", "i")])
        got = translate_tree(demo_grammar(), tree, "alpha", "beta")
        assert repr(got) == repr(internal(
            "S", [leaf("PRP", "wo"), internal("VP", [leaf("VB", "kan"), leaf("NN", "mu")]), leaf("PRP", "wo")]))
        assert [node.origin for node in iter_nodes(got) if node.token] == [None] * 4

    def test_unknown_language_rejected(self):
        with pytest.raises(SynthError, match="unknown language"):
            lexicon_map(demo_grammar(), "alpha", "gamma")


class TestAlignmentFormat:
    def test_round_trip(self):
        alignment = ((0, 2), (1, 0), (2, 1))
        line = format_alignment(alignment)
        assert line == "0-2\t1-0\t2-1"
        assert parse_alignment(line) == alignment

    def test_empty_line(self):
        assert parse_alignment("") == ()

    def test_bad_token(self):
        with pytest.raises(SynthError, match="bad alignment token 'x-y'"):
            parse_alignment("0-1 x-y")

    def test_write_corpus_files(self, tmp_path):
        g = demo_grammar()
        languages, pairs = corpus_pairs(g, 8, 3)
        corpus = ParallelCorpus(tuple(pairs), 3, languages)
        pa, pb, pal = (tmp_path / n for n in ("a.trees", "b.trees", "align.txt"))
        write_corpus(corpus, str(pa), str(pb), str(pal))
        side_a = read_treebank(str(pa))
        side_b = read_treebank(str(pb))
        assert [serialize(t) for t in side_a] == [serialize(a) for a, _, _ in corpus.pairs]
        assert [serialize(t) for t in side_b] == [serialize(b) for _, b, _ in corpus.pairs]
        lines = (tmp_path / "align.txt").read_text().splitlines()
        assert [parse_alignment(l) for l in lines] == [al for _, _, al in corpus.pairs]


# ---------------------------------------------------------------------------
# The sampling plan against the algorithm it replaced


#: The reference's unordered derivation: children, or a concept at a preterminal.
Derivation = collections.namedtuple("Derivation", "symbol children concept", defaults=((), None))


def reference_pair(grammar, rng, languages, max_depth=MAX_DEPTH, max_retries=MAX_RETRIES):
    """``sample_pair`` as written before the plan: the recursion fixpoint,
    the production scan and the weight list per node, ``leaf``/``internal``
    escaping, and leaf positions read from a ``Sentence``."""
    first = next(iter(grammar.lexicons.values()))
    preterminals = frozenset(first)
    arity = {pre: len(words) for pre, words in first.items()}

    def derive():
        recursive = grammar.recursive_productions()

        def expand(symbol, depth):
            if symbol in preterminals:
                return Derivation(symbol, concept=rng.randbelow(arity[symbol]))
            options = tuple(p for p in grammar.productions if p.lhs == symbol)
            if depth >= max_depth:
                options = tuple(p for p in options if all(s in preterminals for s in p.rhs))
                if not options:
                    raise DepthCap
                weights = [p.weight for p in options]
            else:
                weights = [
                    p.weight * DEPTH_DECAY**depth if p in recursive else p.weight for p in options
                ]
            chosen = options[weighted_index(rng, weights)]
            return Derivation(symbol, tuple(expand(s, depth + 1) for s in chosen.rhs))

        return expand(grammar.start, 0)

    def swap(parent, kids, profile):
        if len(kids) != 2:
            return kids
        first, second = kids
        if (
            (parent == "VP" and profile.verb_object == "OV"
             and first.label.startswith("VB") and second.label == "NP")
            or (parent == "PP" and profile.adposition == "Post"
                and first.label == "IN" and second.label == "NP")
            or (parent == "NP" and profile.adjective_noun == "NA"
                and first.label.startswith("JJ") and second.label.startswith("NN"))
        ):
            return [second, first]
        return kids

    def lin(derivation, language):
        lexicon, profile, counter = grammar.lexicons[language], grammar.profiles[language], itertools.count()

        def build(node):
            if node.concept is not None:
                return leaf(node.symbol, lexicon[node.symbol][node.concept], origin=next(counter))
            return internal(node.symbol, swap(node.symbol, [build(c) for c in node.children], profile))

        return build(derivation)

    for _ in range(max_retries):
        try:
            derivation = derive()
            break
        except DepthCap:
            continue
    else:
        raise SynthError(f"no derivation closed within depth {max_depth} after {max_retries} attempts")
    tree_a, tree_b = lin(derivation, languages[0]), lin(derivation, languages[1])
    pos_a, pos_b = (
        {origin: idx for idx, (_, origin) in enumerate(yield_sentence(t).tokens)} for t in (tree_a, tree_b)
    )
    return tree_a, tree_b, tuple((pos_a[k], pos_b[k]) for k in range(len(pos_a)))


class DepthCap(Exception):
    pass


# Deep recursion through two nonterminals, escaped words and labels, and a
# cycle (A -> B NN, B -> A NN) whose B has no all-preterminal option, so the
# depth cap forces retries.
RECURSIVE_GRAMMAR = """\
language a
language b 83A=OV 85A=Post 87A=NA
language c 87A=NA
rule S -> NP VP : 2
rule S -> A : 1
rule NP -> NP PP : 3
rule NP -> JJ NN : 1
rule NP -> NN
rule PP -> IN NP
rule VP -> VB NP : 2
rule VP -> VP(x) : 1
rule VP(x) -> VB
rule A -> B NN : 4
rule A -> NN : 1
rule B -> A NN : 2.5
lex a NN cat (dog) a-b x:y
lex a JJ big
lex a IN on under
lex a VB see
lex b NN neko inu ab xy
lex b JJ ookii
lex b IN ue shita
lex b VB miru
lex c NN c1 c2 c3 c4
lex c JJ c5
lex c IN c6 c7
lex c VB c8
"""


# A recursive rule so heavy that derivations run to whatever depth cap is
# set, so the plan's damped weights are read at every depth below it.
DEEP_GRAMMAR = """\
language a
language b 87A=NA
rule S -> X
rule X -> X NP : 1000000
rule X -> NP
rule NP -> JJ NN
rule NP -> NN
lex a NN n1 n2
lex a JJ j
lex b NN m1 m2
lex b JJ k
"""


# At S the running sums are 1 - 2**-53 and 1.0: the start symbol's draw of
# 2**64 - 1, whose random() is 1 - 2**-53, lands exactly on the first sum and
# so takes the second option. At NP they are 1, 1e17, 1e17, 1e17: 1e17 + 1
# rounds to 1e17, so the last two options are never chosen.
PLATEAU_GRAMMAR = """\
language a
language b 87A=NA
rule S -> NP : 0.9999999999999999
rule S -> NP NN : 1.1102230246251565e-16
rule NP -> NN : 1
rule NP -> JJ NN : 1e17
rule NP -> JJ : 1
rule NP -> NN NN : 1
lex a NN n1 n2
lex a JJ j1 j2
lex b NN m1 m2
lex b JJ k1 k2
"""

# X's one option is recursive and 5e-324 * 0.5 rounds to 0.0, so below the cap
# a draw for X has only zero weights to draw from.
UNDERFLOW_GRAMMAR = """\
language a
language b
rule S -> NN
rule S -> X
rule X -> X NN : 5e-324
lex a NN n1 n2
lex b NN m1 m2
"""


def spaced_grammar() -> SynthGrammar:
    """Words with whitespace, which only a grammar built in code can hold."""
    return SynthGrammar(
        (Production("S", ("NP", "VP")), Production("NP", ("JJ", "NN")), Production("NP", ("NN",)),
         Production("VP", ("VB", "NP"), 2.0), Production("VP", ("VB",))),
        {"a": {"NN": ("big cat", "dog\tday"), "JJ": ("red",), "VB": ("runs away",)},
         "b": {"NN": ("n1", "n2"), "JJ": ("j 1",), "VB": ("v",)}},
        {"a": OrderProfile(), "b": OrderProfile("OV", "Post", "NA")},
    )


GRAMMARS = [
    (demo_grammar, ("alpha", "beta")),
    (lambda: parse_grammar(RECURSIVE_GRAMMAR), ("a", "b")),
    (lambda: parse_grammar(RECURSIVE_GRAMMAR), ("c", "a")),
    (spaced_grammar, ("b", "a")),
    (lambda: parse_grammar(DEEP_GRAMMAR), ("a", "b")),
    (lambda: parse_grammar(PLATEAU_GRAMMAR), ("b", "a")),
    (lambda: parse_grammar(UNDERFLOW_GRAMMAR), ("a", "b")),
]

#: Seeds whose first draw, the start symbol's choice, is 0 or 2**64 - 1, so
#: that ``random()`` returns 0.0 or 1 - 2**-53, then 60 ordinary ones.
SEEDS = (seed_drawing(0, 0), seed_drawing(MASK64, 0), *range(1000, 1060))


class TestSamplingPlan:
    @pytest.mark.parametrize("grammar, languages", GRAMMARS)
    @pytest.mark.parametrize("max_depth", [0, 2, 3, 6, MAX_DEPTH, MAX_DEPTH + 5])
    def test_pairs_and_draws_equal_the_reference(self, monkeypatch, grammar, languages, max_depth):
        # The cap and retries are set before the plan is built, once, for the whole loop.
        monkeypatch.setattr(synthlang, "MAX_DEPTH", max_depth)
        monkeypatch.setattr(synthlang, "MAX_RETRIES", 4)
        g = grammar()
        for seed in SEEDS:
            ours, theirs = CountingRng(seed), CountingRng(seed)
            try:
                expected = reference_pair(g, theirs, languages, max_depth, max_retries=4)
            except ValueError as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    sample_pair(g, rng=ours, languages=languages)
            else:
                a, b, alignment = sample_pair(g, rng=ours, languages=languages)
                assert (repr(a), repr(b), alignment) == tuple(map(repr, expected[:2])) + (expected[2],)
            assert ours.draws == theirs.draws
            assert ours.next_u64() == theirs.next_u64()

    @pytest.mark.parametrize("grammar, languages", GRAMMARS)
    @pytest.mark.parametrize("max_depth", [0, 2, 3, 6, MAX_DEPTH, MAX_DEPTH + 5])
    def test_lines_and_draws_equal_the_reference(self, monkeypatch, grammar, languages, max_depth):
        """The walk that writes text gives the reference trees' serialized lines."""
        monkeypatch.setattr(synthlang, "MAX_DEPTH", max_depth)
        monkeypatch.setattr(synthlang, "MAX_RETRIES", 4)
        g = grammar()
        for seed in SEEDS:
            ours, theirs = CountingRng(seed), CountingRng(seed)
            try:
                expected = reference_pair(g, theirs, languages, max_depth, max_retries=4)
            except ValueError as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    sample_lines(g, rng=ours, languages=languages)
            else:
                line_a, line_b, alignment = sample_lines(g, rng=ours, languages=languages)
                assert (line_a, line_b) == (serialize(expected[0]), serialize(expected[1]))
                assert alignment == expected[2]
            assert ours.draws == theirs.draws
            assert ours.next_u64() == theirs.next_u64()

    @staticmethod
    def choices(weights, rng, pairs):
        """The option each of ``pairs`` pairs takes at ``S -> A | B | C ...``
        with these weights. Each symbol has one word, so the start symbol's
        choice is a pair's only draw."""
        symbols = [chr(ord("A") + k) for k in range(len(weights))]
        g = parse_grammar("language a\nlanguage b\n" + "".join(
            f"rule S -> {sym} : {w}\nlex a {sym} {sym.lower()}\nlex b {sym} {sym.lower()}2\n"
            for sym, w in zip(symbols, weights)
        ))
        draws = []
        for _ in range(pairs):
            line_a, _, _ = sample_lines(g, rng)
            draws.append(symbols.index(line_a[4]))
        return draws

    def test_choices_are_pinned(self):
        rng = CountingRng(5)
        assert self.choices([1.0, 2.0, 3.0], rng, 10) == [1, 2, 1, 0, 1, 1, 2, 2, 1, 2]
        assert rng.draws == 10

    def test_an_absorbed_weight_is_never_chosen(self):
        # Running sums 1, 1e17, 1e17: C adds nothing, and A needs x < 1.
        assert set(self.choices([1, 1e17, 1], Rng(8), 200)) == {1}

    def test_choices_follow_the_weights(self):
        counts = collections.Counter(self.choices([1, 3], Rng(31), 20_000))
        assert counts[1] / 20_000 == pytest.approx(0.75, abs=0.02)

    def test_the_comparison_meets_retries_and_failures(self):
        # At cap 2 the recursive grammar's seeds above close at once, close
        # only after a retry, or run out of retries.
        g = parse_grammar(RECURSIVE_GRAMMAR)
        closed = collections.Counter()
        for i in range(60):
            for retries in (1, 4):
                try:
                    reference_pair(g, Rng(1000 + i), ("a", "b"), 2, retries)
                    closed[retries] += 1
                except SynthError:
                    pass
        assert 0 < closed[1] < closed[4] < 60

    def test_plan_leaves_equality_and_repr_alone(self):
        g, h = demo_grammar(), demo_grammar()
        assert g == h and g._plan is not h._plan
        assert g != parse_grammar(DEMO_GRAMMAR_TEXT.replace("rule VP -> VB : 1", "rule VP -> VB : 2"))
        fields = ", ".join(f"{name}={getattr(g, name)!r}" for name in g._fields)
        assert repr(g) == f"SynthGrammar({fields})"
        assert "_plan" not in repr(g)
        # Equality compares the record's items, which are these fields and only these.
        compared = ("productions", "lexicons", "profiles", "start")
        assert g._fields == compared and tuple(g) == tuple(getattr(g, name) for name in compared)

    def test_empty_word_rejected_when_the_grammar_is_built(self):
        with pytest.raises(SynthError, match="preterminal NN has an empty word"):
            SynthGrammar(
                (Production("S", ("NN",)),),
                {"a": {"NN": ("x", "")}, "b": {"NN": ("y", "z")}},
                {"a": OrderProfile(), "b": OrderProfile()},
            )

