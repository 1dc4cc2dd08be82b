from __future__ import annotations

import collections
import functools
import os

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from treelab.cli import main
from treelab.pipeline import parse_chain
from treelab.rng import run_streams, stream_seed
from treelab.transform import (
    BUILTIN_RULES,
    AblationSpec,
    ReorderRule,
    apply_reorder,
    constituent_shuffle,
    intermediate_node_count,
    inverse_rule,
    load_rules,
    remove_composition,
    reorder_kids,
    reorder_table,
    word_shuffle,
)
from treelab.treebank import (
    TreeNode,
    iter_nodes,
    leaf,
    parse_ptb,
    scan_ptb,
    serialize,
    yield_sentence,
)

from conftest import random_tree, tree_nodes
from helpers import (CountingRng, apply_chain, internal, reference_apply_reorder,
                     reference_remove_composition)

NESTED = "(S (NP (PRP I)) (VP (VBD read) (NP (CD two) (NNS papers))))"
FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "english_like.trees")


def unordered_fingerprint(node: TreeNode):
    """Shape of a tree ignoring child order — what shuffles must preserve."""
    if node.token is not None:
        return (node.label, node.token)
    return (node.label, tuple(sorted(map(repr, map(unordered_fingerprint, node.children)))))


def token_multiset(tree: TreeNode) -> collections.Counter:
    return collections.Counter(yield_sentence(tree).tokens)


class TestReorderRule:
    def test_builtin_patterns(self):
        assert BUILTIN_RULES["83A"].parent_label == "VP"
        assert BUILTIN_RULES["85A"].prefix_match == frozenset()
        assert BUILTIN_RULES["87A"].prefix_match == frozenset({"JJ", "NN"})

    def test_matches_requires_exactly_two_children(self):
        rule = BUILTIN_RULES["83A"]
        assert rule.matches(parse_ptb("(VP (VBD saw) (NP (NN it)))"))
        assert not rule.matches(parse_ptb("(VP (VBD gave) (NP (NN it)) (NP (NN him)))"))
        assert not rule.matches(parse_ptb("(VP (VBD slept))"))

    def test_prefix_vs_exact(self):
        rule = BUILTIN_RULES["83A"]
        assert rule.matches(parse_ptb("(VP (VBZ sees) (NP (NN it)))"))
        assert not rule.matches(parse_ptb("(VP (VBD saw) (NPS (NN it)))"))  # NP is exact
        exact = ReorderRule("x", "VP", "VB", "NP")
        assert not exact.matches(parse_ptb("(VP (VBZ sees) (NP (NN it)))"))

    def test_validation(self):
        with pytest.raises(ValueError):
            ReorderRule("f", "VP", "NP", "NP")
        with pytest.raises(ValueError):
            ReorderRule("f", "V P", "A", "B")
        with pytest.raises(ValueError):
            ReorderRule("", "VP", "A", "B")

    def test_inverse_swaps_patterns(self):
        rule = BUILTIN_RULES["83A"]
        inv = inverse_rule(rule)
        assert (inv.first_child, inv.second_child) == ("NP", "VB")
        assert inv.parent_label == rule.parent_label
        assert inverse_rule(inv) == rule


class TestApplyReorder:
    def test_verb_object_example(self):
        result = apply_reorder(parse_ptb(NESTED), BUILTIN_RULES["83A"])
        sentence = yield_sentence(result)
        assert sentence.text() == "I two papers read"
        assert sentence.origins() == (0, 2, 3, 1)
        assert serialize(result) == "(S (NP (PRP I)) (VP (NP (CD two) (NNS papers)) (VBD read)))"

    def test_adposition_example(self):
        tree = parse_ptb("(S (NP (NN cat)) (PP (IN on) (NP (DT the) (NN mat))))")
        result = apply_reorder(tree, BUILTIN_RULES["85A"])
        assert yield_sentence(result).text() == "cat the mat on"

    def test_adjective_noun_example(self):
        tree = parse_ptb("(NP (JJ red) (NNS apples))")
        result = apply_reorder(tree, BUILTIN_RULES["87A"])
        assert yield_sentence(result).text() == "apples red"

    def test_untouched_without_match(self):
        tree = parse_ptb("(S (NP (DT a) (NN dog)) (VP (VBD ran)))")
        assert apply_reorder(tree, BUILTIN_RULES["83A"]) == tree

    def test_inverse_round_trip_on_canonical_tree(self):
        tree = parse_ptb(NESTED)
        rule = BUILTIN_RULES["83A"]
        once = apply_reorder(tree, rule)
        back = apply_reorder(once, inverse_rule(rule))
        assert back == tree
        assert yield_sentence(back).origins() == (0, 1, 2, 3)

    @given(tree_nodes(), st.sampled_from(sorted(BUILTIN_RULES)))
    def test_idempotent_on_any_tree(self, tree, feature):
        rule = BUILTIN_RULES[feature]
        once = apply_reorder(tree, rule)
        assert apply_reorder(once, rule) == once

    @given(tree_nodes(), st.sampled_from(sorted(BUILTIN_RULES)))
    def test_preserves_tokens_and_node_labels(self, tree, feature):
        result = apply_reorder(tree, BUILTIN_RULES[feature])
        assert token_multiset(result) == token_multiset(tree)
        original_labels = collections.Counter(n.label for n in iter_nodes(tree))
        assert collections.Counter(n.label for n in iter_nodes(result)) == original_labels

    def test_applies_at_every_depth(self):
        tree = parse_ptb(
            "(S (VP (VB try) (NP (NN x))) (SBAR (S (VP (VBZ works) (NP (NN y))))))"
        )
        result = apply_reorder(tree, BUILTIN_RULES["83A"])
        assert yield_sentence(result).text() == "x try y works"


# Built-ins, their inverses, and two more pairs that share a parent label
# with each other and with 87A (NP) or 85A (PP).
RULE_POOL = {
    **BUILTIN_RULES,
    **{f"{name}-inv": inverse_rule(rule) for name, rule in BUILTIN_RULES.items()},
    "NPD": ReorderRule("NPD", "NP", "DT", "NN", frozenset({"NN"})),
    "NPD-inv": ReorderRule("NPD-inv", "NP", "NN", "DT", frozenset({"NN"})),
    "PPX": ReorderRule("PPX", "PP", "IN", "S"),
}


def one_pass_per_rule(tree: TreeNode, rules) -> TreeNode:
    for rule in rules:
        tree = apply_reorder(tree, rule)
    return tree


class TestReorderInOneWalk:
    @given(tree_nodes(), st.lists(st.sampled_from(sorted(RULE_POOL)), max_size=5))
    def test_equals_one_pass_per_rule(self, tree, names):
        rules = [RULE_POOL[name] for name in names]
        assert repr(apply_reorder(tree, rules)) == repr(one_pass_per_rule(apply_reorder(tree, []), rules))

    @given(tree_nodes(), st.lists(st.sampled_from(sorted(RULE_POOL)), max_size=5),
           st.sampled_from(["none", "in order", "permuted", "shared"]))
    def test_equals_the_reference_fold(self, tree, names, origins):
        """The same tree, origins included, as the reference fold, and the same nodes
        of the input kept: on trees without origins, with origins in order or
        permuted, and with one subtree object at two places."""
        rules = [RULE_POOL[name] for name in names]
        if origins == "in order":
            tree = parse_ptb(serialize(tree))
        elif origins == "permuted":
            tree = constituent_shuffle(tree, run_streams(2)(len(names)))
        elif origins == "shared":
            tree = internal("S", [tree, leaf("NN", "x"), tree])
        got, want = apply_reorder(tree, rules), reference_apply_reorder(tree, rules)
        assert repr(got) == repr(want)
        inputs = {id(node) for node in iter_nodes(tree)}
        assert ({id(node) for node in iter_nodes(got)} & inputs
                == {id(node) for node in iter_nodes(want)} & inputs)
        assert (got is tree) == (want is tree)

    @pytest.mark.parametrize(
        "names",
        [["83A", "83A"], ["87A", "87A-inv"], ["87A-inv", "87A"], ["87A", "NPD", "87A-inv", "NPD-inv"],
         ["85A", "PPX", "85A-inv"], ["83A", "85A", "87A"]],
    )
    def test_reorders_after_a_shuffle_equal_one_call_per_step(self, names, tmp_path, monkeypatch,
                                                               capsys):
        """Reorder steps after a step that draws run in one walk in ``transform``;
        its bytes equal the chain reference's, one library call per step."""
        rules_file = tmp_path / "pool.rules"
        rules_file.write_text("".join(
            f"{name} {rule.parent_label} {rule.first_child} {rule.second_child}"
            + "".join(f" prefix:{pattern}" for pattern in sorted(rule.prefix_match)) + "\n"
            for name, rule in RULE_POOL.items() if name not in BUILTIN_RULES))
        chain = ",".join(["constituent_shuffle", *(f"reorder:{name}" for name in names)])
        monkeypatch.chdir(tmp_path)
        code = main(["transform", FIXTURE, "-o", "s.txt", "--tree-output", "t.trees", "--emit", "both",
                     "--rules", str(rules_file), "--seed", "4", "--chain", chain])
        assert code == 0, capsys.readouterr().err
        steps = parse_chain(chain, {rule.feature_id: rule
                                    for rule in load_rules(rules_file.read_text().splitlines())})
        sentences, trees = [], []
        with open(FIXTURE, encoding="utf-8") as fh:
            for index, line in enumerate(fh):
                tree, sentence = apply_chain(parse_ptb(line), steps, run_streams(4)(index))
                sentences.append(sentence.text() + "\n")
                trees.append(serialize(tree) + "\n")
        assert (tmp_path / "s.txt").read_text() == "".join(sentences)
        assert (tmp_path / "t.trees").read_text() == "".join(trees)

    def test_a_node_swapped_and_swapped_back_is_shared(self):
        tree = parse_ptb("(S (NP (JJ red) (NN cat)) (VP (VB see) (NP (NN dog))))")
        assert apply_reorder(tree, [RULE_POOL["87A"], RULE_POOL["87A-inv"]]) is tree
        once = apply_reorder(tree, [RULE_POOL["83A"], RULE_POOL["87A"], RULE_POOL["87A-inv"]])
        assert once.children[0] is tree.children[0]
        assert once.children[1].children == tree.children[1].children[::-1]

    @staticmethod
    def assert_the_scan_hook_equals_a_walk_after_the_parse(text, rules):
        """``reorder_kids`` run as each bracket closes gives ``apply_reorder``'s tree and origins."""
        tokens, scanned = scan_ptb(text, close=functools.partial(reorder_kids, reorder_table(rules)))
        assert repr(scanned) == repr(apply_reorder(parse_ptb(text), rules))
        assert tokens == scan_ptb(text)[0]

    @given(tree_nodes(), st.lists(st.sampled_from(sorted(RULE_POOL)), max_size=5))
    def test_the_scan_hook_on_generated_trees(self, tree, names):
        self.assert_the_scan_hook_equals_a_walk_after_the_parse(
            serialize(tree), [RULE_POOL[name] for name in names])

    @pytest.mark.parametrize("names", [["83A"], ["87A", "NPD", "87A-inv", "NPD-inv"], ["85A", "PPX"],
                                       ["83A", "85A", "87A"], ["87A-inv", "87A"]])
    def test_the_scan_hook_on_the_fixture(self, names):
        with open(FIXTURE, encoding="utf-8") as fh:
            for line in fh:
                self.assert_the_scan_hook_equals_a_walk_after_the_parse(
                    line, [RULE_POOL[name] for name in names])

    @pytest.mark.parametrize("names", [["83A", "NPD", "VPX", "85A", "87A", "NPP"],
                                       ["NPP", "87A", "83A", "85A", "VPX", "NPD"]])
    def test_rules_filed_by_label_equal_one_pass_per_rule(self, names, tmp_path, monkeypatch,
                                                           capsys):
        """Built-in and rules-file rules on one parent label (83A and VPX on VP; 87A,
        NPD and NPP on NP) and on another (85A on PP), through the library and
        through ``transform --chain``, give what one pass per rule in chain order gives."""
        rules_file = tmp_path / "extra.rules"
        rules_file.write_text("VPX VP NP VB prefix:VB\nNPD NP DT NN prefix:NN\nNPP NP NP PP\n")
        known = {**BUILTIN_RULES, **{rule.feature_id: rule for rule in
                                     load_rules(rules_file.read_text().splitlines())}}
        rules = [known[name] for name in names]
        with open(FIXTURE, encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh if line.strip()]
        expected = [one_pass_per_rule(parse_ptb(line), rules) for line in lines]
        for name in names:  # every rule swaps some node of the fixture, in this order
            before = rules[:names.index(name)]
            assert any(known[name].matches(node) for line in lines
                       for node in iter_nodes(one_pass_per_rule(parse_ptb(line), before))), name
        for line, tree in zip(lines, expected):
            assert repr(apply_reorder(parse_ptb(line), rules)) == repr(tree)
        monkeypatch.chdir(tmp_path)
        code = main(["transform", FIXTURE, "-o", "out.trees", "--emit", "trees", "--rules",
                     str(rules_file), "--chain", ",".join(f"reorder:{name}" for name in names)])
        assert code == 0, capsys.readouterr().err
        assert (tmp_path / "out.trees").read_text().splitlines() == list(map(serialize, expected))

    def test_no_rules_assigns_origins(self):
        tree = TreeNode("S", (TreeNode("NN", token="a"), TreeNode("NN", token="b")))
        assert yield_sentence(apply_reorder(tree, [])).origins() == (0, 1)


class TestConstituentShuffle:
    def test_deterministic(self):
        tree = parse_ptb(NESTED)
        a = constituent_shuffle(tree, run_streams(11)(4))
        b = constituent_shuffle(tree, run_streams(11)(4))
        assert a == b

    def test_seed_changes_result(self):
        tree = parse_ptb("(S (A (X x) (Y y) (Z z)) (B (P p) (Q q) (R r)) (C (NN c)))")
        results = {serialize(constituent_shuffle(tree, run_streams(0)(i))) for i in range(24)}
        assert len(results) > 1

    @given(tree_nodes(), st.integers(0, 2**32))
    def test_preserves_unordered_shape(self, tree, seed):
        shuffled = constituent_shuffle(tree, run_streams(seed)(0))
        assert unordered_fingerprint(shuffled) == unordered_fingerprint(tree)
        assert token_multiset(shuffled) == token_multiset(tree)

    def test_unary_chain_fixed_point(self):
        tree = parse_ptb("(S (X (Y (NN deep))))")
        assert constituent_shuffle(tree, run_streams(3)(0)) == tree

    def test_include_root_false_keeps_root_order(self):
        tree = parse_ptb("(S (A (NN a)) (B (NN b)) (C (NN c)) (D (NN d)))")
        for i in range(40):
            out = constituent_shuffle(tree, run_streams(1)(i), include_root=False)
            assert [c.label for c in out.children] == ["A", "B", "C", "D"]

    def test_include_root_default_moves_root_children(self):
        tree = parse_ptb("(S (A (NN a)) (B (NN b)) (C (NN c)) (D (NN d)))")
        orders = {
            tuple(c.label for c in constituent_shuffle(tree, run_streams(1)(i)).children)
            for i in range(40)
        }
        assert len(orders) > 1

    def test_three_leaf_orders_all_reachable(self):
        tree = parse_ptb("(S (A a) (B b) (C c))")
        seen = collections.Counter(
            yield_sentence(constituent_shuffle(tree, run_streams(2)(i))).surfaces()
            for i in range(1200)
        )
        assert len(seen) == 6
        for count in seen.values():
            assert count == pytest.approx(200, rel=0.35)


class TestWordShuffle:
    def test_deterministic_and_matches_stream(self):
        sentence = yield_sentence(parse_ptb(NESTED))
        out = word_shuffle(sentence, run_streams(9)(2))
        again = word_shuffle(sentence, run_streams(9)(2))
        assert out == again
        # Consumes exactly one Fisher-Yates pass of the named stream.
        tokens = list(sentence.tokens)
        run_streams(9)(2).shuffle(tokens)
        assert out.tokens == tuple(tokens)

    def test_preserves_token_multiset(self):
        sentence = yield_sentence(parse_ptb(NESTED))
        out = word_shuffle(sentence, run_streams(0)(0))
        assert collections.Counter(out.tokens) == collections.Counter(sentence.tokens)

    def test_rejects_empty(self):
        from treelab.treebank import Sentence

        with pytest.raises(ValueError):
            word_shuffle(Sentence(()), run_streams(0)(0))

    def test_single_token_fixed(self):
        sentence = yield_sentence(parse_ptb("(S (UH oh))"))
        assert word_shuffle(sentence, run_streams(5)(0)) == sentence


class TestRemoveComposition:
    def test_alpha_zero_is_identity(self):
        tree = parse_ptb(NESTED)
        assert remove_composition(tree, AblationSpec(0.0), run_streams(0)(0)) == tree

    def test_alpha_one_flattens_example(self):
        result = remove_composition(parse_ptb(NESTED), AblationSpec(1.0), run_streams(0)(0))
        assert serialize(result) == "(S (NP (PRP I)) (VBD read) (CD two) (NNS papers))"

    def test_intermediate_node_count(self):
        assert intermediate_node_count(parse_ptb(NESTED)) == 2  # VP and the inner NP
        assert intermediate_node_count(parse_ptb("(S (NN x))")) == 0
        assert intermediate_node_count(parse_ptb("(S (NP (NN a) (NN b)))")) == 1
        # Root multi-child nodes do not count; nested ones do.
        assert intermediate_node_count(parse_ptb("(S (A a) (B b))")) == 0

    def test_round_half_up(self):
        # Three candidates at alpha 0.5 -> remove 2 (1.5 rounds up).
        tree = parse_ptb("(S (A (X x) (Y y)) (B (P p) (Q q)) (C (M m) (N n)))")
        assert intermediate_node_count(tree) == 3
        result = remove_composition(tree, AblationSpec(0.5), run_streams(4)(0))
        assert intermediate_node_count(result) == 1

    def test_nested_selection_spliced_in_place(self):
        tree = parse_ptb("(S (X (Y (NN a) (NN b)) (NN c)) (NN d))")
        result = remove_composition(tree, AblationSpec(1.0), run_streams(0)(0))
        assert serialize(result) == "(S (NN a) (NN b) (NN c) (NN d))"

    def test_position_preserved_on_splice(self):
        tree = parse_ptb("(S (A a) (X (B b) (C c)) (D d))")
        result = remove_composition(tree, AblationSpec(1.0), run_streams(0)(0))
        assert serialize(result) == "(S (A a) (B b) (C c) (D d))"

    @given(tree_nodes(), st.floats(0, 1), st.integers(0, 2**32))
    def test_preserves_yield_order_and_tokens(self, tree, alpha, seed):
        result = remove_composition(tree, AblationSpec(alpha), run_streams(seed)(0))
        assert yield_sentence(result).tokens == yield_sentence(tree).tokens

    def test_deterministic(self):
        tree = parse_ptb("(S (A (X x) (Y y)) (B (P p) (Q q)) (C (M m) (N n)))")
        spec = AblationSpec(0.5)
        assert remove_composition(tree, spec, run_streams(77)(3)) == remove_composition(
            tree, spec, run_streams(77)(3)
        )

    def test_shuffle_after_composes_with_stream(self):
        tree = parse_ptb(NESTED)
        spec = AblationSpec(0.5, shuffle_after=True)
        combined = remove_composition(tree, spec, run_streams(6)(1))
        rng = run_streams(6)(1)
        manual = remove_composition(tree, AblationSpec(0.5), rng=rng)
        manual = constituent_shuffle(manual, rng=rng)
        assert combined == manual

    @pytest.mark.parametrize("shuffle_after", [False, True])
    def test_an_origin_less_tree_gets_origins_in_input_order(self, shuffle_after):
        tree = internal("S", [internal("NP", [leaf("DT", "the"), leaf("NN", "cat")]),
                              internal("VP", [leaf("VB", "saw"), leaf("PRP", "us")])])
        result = remove_composition(tree, AblationSpec(0.5, shuffle_after), run_streams(1)(0))
        position = {"the": 0, "cat": 1, "saw": 2, "us": 3}
        tokens = yield_sentence(result).tokens
        assert dict(tokens) == position
        assert all(node.origin is not None for node in iter_nodes(result) if node.token is not None)
        if not shuffle_after:
            assert tokens == tuple(position.items())

    def test_a_tree_that_mixes_origins_raises(self):
        tree = internal("S", [internal("NP", [leaf("DT", "the", 0), leaf("NN", "cat")]), leaf("VB", "saw", 2)])
        for alpha in (0.0, 1.0):
            with pytest.raises(ValueError, match="^tree mixes leaves with and without origin indices$"):
                remove_composition(tree, AblationSpec(alpha, True), run_streams(1)(0))

    def test_a_shared_subtree_is_handled_at_each_position(self):
        np_ = internal("NP", [leaf("DT", "the"), leaf("NN", "cat")])
        tree = internal("S", [np_, internal("VP", [leaf("VB", "saw"), np_])])
        assert intermediate_node_count(tree) == 3  # NP, VP and NP again
        result = remove_composition(tree, AblationSpec(1.0), run_streams(1)(0))
        assert repr(result) == "TreeNode('(S (DT the) (NN cat) (VB saw) (DT the) (NN cat))', origins=(0, 1, 2, 3, 4))"
        # One of the three positions goes; it may be either NP, leaving the other.
        texts = [serialize(remove_composition(tree, AblationSpec(1 / 3), run_streams(1)(i)))
                 for i in range(20)]
        assert {text.count("(NP ") + text.count("(VP ") for text in texts} == {2}
        assert {text.count("(NP ") for text in texts} == {1, 2}

    def test_equals_the_rebuild_fold_draw_for_draw(self):
        """On trees without origins, with carried origins in order, with permuted
        origins and with a shared subtree: the same tree, origins included, the
        same number of draws and the same next draw as the reference fold, for
        ``constituent_shuffle`` as the fold with nothing removed, and with each
        ``close`` hook as the reference reorder fold on the fold's tree: every call meets
        every tree with no hook and with each hook."""
        rng = run_streams(11)(0)
        trees = []
        for _ in range(60):
            raw = random_tree(rng, max_depth=6, max_children=4)
            trees += [raw, parse_ptb(serialize(raw)),
                      constituent_shuffle(raw, rng), internal("S", [raw, raw, leaf("NN", "x")])]
        # Rules for the commonest two-child patterns of the trees: one alone, one
        # with its inverse, two on one label, and one that matches by prefix.
        patterns = collections.Counter(
            (node.label, *(kid.label for kid in node.children)) for tree in trees
            for node in iter_nodes(tree) if len(node.children) == 2
            and node.children[0].label != node.children[1].label)
        top, *others = [ReorderRule("t", *pattern) for pattern, _ in patterns.most_common()]
        twin = next(rule for rule in others if rule.parent_label == top.parent_label)
        rule_sets = [[top], [top, inverse_rule(top)], [top, twin],
                     [ReorderRule("p", "NP", "VB", "NN", frozenset({"VB", "NN"}))]]
        calls = [(spec, functools.partial(remove_composition, spec=spec))
                 for spec in (AblationSpec(alpha, shuffle_after)
                              for alpha in (0.0, 0.3, 0.5, 1.0) for shuffle_after in (False, True))]
        calls.append((AblationSpec(0, True), constituent_shuffle))
        variants = [(None, None)] + [(rules, functools.partial(reorder_kids, reorder_table(rules)))
                                     for rules in rule_sets]
        swapped = [0] * len(variants)
        for spec, call in calls:
            for index, tree in enumerate(trees):
                for variant, (rules, close) in enumerate(variants):
                    ours, theirs = CountingRng(stream_seed(3, index)), CountingRng(stream_seed(3, index))
                    got = call(tree, rng=ours, close=close)
                    want = reference_remove_composition(tree, spec, theirs)
                    if rules:
                        reordered = reference_apply_reorder(want, rules)
                        swapped[variant] += reordered != want
                        want = reordered
                    assert repr(got) == repr(want)
                    assert ours.draws == theirs.draws
                    assert ours.next_u64() == theirs.next_u64()
        assert min(swapped[1:]) > 0, swapped

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            AblationSpec(-0.1)
        with pytest.raises(ValueError):
            AblationSpec(1.5)


class TestRulesFile:
    def test_parse_rules(self):
        rules = load_rules(
            [
                "# adposition order",
                "",
                "85A PP IN NP",
                "myrule QP CD NN prefix:NN prefix:CD  # trailing comment",
            ]
        )
        assert [r.feature_id for r in rules] == ["85A", "myrule"]
        assert rules[1].prefix_match == frozenset({"NN", "CD"})

    def test_bad_lines_name_line_number(self):
        with pytest.raises(ValueError, match=":2:"):
            load_rules(["85A PP IN NP", "oops PP IN"])
        with pytest.raises(ValueError, match=":1:"):
            load_rules(["85A PP IN NP badmod"])
        with pytest.raises(ValueError, match=":1:"):
            load_rules(["85A PP IN IN"])

    def test_loaded_rule_behaves_like_builtin(self):
        (rule,) = load_rules(["83A VP VB NP prefix:VB"])
        assert rule == BUILTIN_RULES["83A"]

    @pytest.mark.parametrize("lines, lineno", [
        (["83A VP NP VB"], 1),  # a built-in, with its children swapped
        (["83A VP VB NP"], 1),  # a built-in, without its prefix match
        (["# mine", "x QP CD NN", "x QP CD JJ"], 3),  # an earlier line
        (["x QP CD NN", "x QP CD NN prefix:NN"], 2),
    ])
    def test_a_feature_cannot_be_redefined(self, lines, lineno):
        feature = lines[-1].split()[0]
        with pytest.raises(ValueError) as caught:
            load_rules(lines, "over.rules")
        assert str(caught.value) == f"over.rules:{lineno}: feature {feature} is already defined"

    def test_restating_a_rule_is_allowed(self):
        rules = load_rules(["85A PP IN NP", "x QP CD NN", "x QP CD NN  # again"])
        assert [r.feature_id for r in rules] == ["85A", "x", "x"]
