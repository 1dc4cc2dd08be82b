"""Paired artificial languages from one shared derivation process.

A grammar holds weighted productions over nonterminals and preterminals,
plus two or more languages, each contributing a lexicon and an order
profile. Sampling walks one derivation in pre-order and writes both
languages' treebank lines as it goes: each nonterminal takes one weighted
draw for its right-hand side, whose symbols are then expanded in the order
written, and each preterminal takes one draw for its concept, which becomes
a leaf in each language's vocabulary. Each side orders every constituent by
its own profile. Library trees are scanned from the lines, each leaf given
the origin the walk recorded. The two sides are therefore word-alignable by
construction, and any structural transform applied to one side has an
analytic ground truth on the other.

Production right-hand sides are written in a fixed canonical order:
verb before object, adposition before its complement, adjective before
noun. ``ORDER_FEATURES`` is the one table of the three word-order
features: each one's canonical and other value and the constituent it
orders. A language whose profile departs from a canonical value swaps the
two children of the matching constituent. The table is deliberately
self-contained — the reorder rules in ``treelab.transform`` replay the
same moves and serve as an independent cross-check, not as a dependency.

Recursive productions are damped geometrically with depth. At the fixed
depth cap, ``MAX_DEPTH``, a nonterminal may expand only by a production
whose right-hand side is all preterminals; one with none strands the
derivation, which is dropped and sampled again, at most ``MAX_RETRIES``
times in all.

A weighted draw is exact: the weights of the options eligible at that
depth are added to ``0.0`` one by one in grammar order, the draw is
``x = random() * total`` with ``total`` the last running sum, and the
option taken is the first whose running sum exceeds ``x``, else the last.

Everything sampling needs that depends only on the grammar and its
languages is worked out once, when the grammar is built, into a private
sampling plan: each nonterminal's options and their running sums at every
depth up to the cap, each option's swap in each language, and each leaf's
escaped text in each language. A pair then costs only its own draws and
text. Corpora are sampled lazily, one pair per seed stream, and written
pair by pair, so memory does not grow with the corpus.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Mapping

from .files import read_lines, replace_on_success
from .rng import Rng, run_streams
from .transform import BUILTIN_RULES, ReorderRule, inverse_rule
from .treebank import TreeNode, escape_symbol, leaf, rebuild, scan_ptb, serialize

_new = tuple.__new__

DEPTH_DECAY = 0.5
MAX_DEPTH = 12
MAX_RETRIES = 20

#: The three word-order features, in ``OrderProfile``'s field order: the value
#: grammar files are written in, the other value, and the constituent the feature
#: orders, PARENT FIRST SECOND as written. A child ending in ``*`` matches every
#: label it starts; any other matches only itself.
ORDER_FEATURES: dict[str, tuple[str, str, str, str, str]] = {
    "83A": ("VO", "OV", "VP", "VB*", "NP"),
    "85A": ("Pre", "Post", "PP", "IN", "NP"),
    "87A": ("AN", "NA", "NP", "JJ*", "NN*"),
}


class SynthError(ValueError):
    pass


class _DepthExceeded(Exception):
    """Internal: derivation hit the depth cap with no closed expansion."""


@dataclass(frozen=True)
class OrderProfile:
    """One language's setting of the three word-order features."""

    verb_object: str = "VO"  # 83A
    adposition: str = "Pre"  # 85A
    adjective_noun: str = "AN"  # 87A

    def __post_init__(self) -> None:
        for (feature, value), row in zip(self.as_features().items(), ORDER_FEATURES.values()):
            if value not in row[:2]:
                raise SynthError(f"feature {feature} must be one of {row[:2]}, got {value!r}")

    def as_features(self) -> dict[str, str]:
        return dict(zip(ORDER_FEATURES, (self.verb_object, self.adposition, self.adjective_noun)))

    @classmethod
    def from_features(cls, features: Mapping[str, str]) -> "OrderProfile":
        unknown = set(features) - set(ORDER_FEATURES)
        if unknown:
            raise SynthError(f"unknown order feature(s): {sorted(unknown)}")
        return cls(*(features.get(f, canonical) for f, (canonical, *_) in ORDER_FEATURES.items()))


@dataclass(frozen=True)
class Production:
    lhs: str
    rhs: tuple[str, ...]
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.rhs:
            raise SynthError(f"production for {self.lhs} has an empty right-hand side")
        if not 0 < self.weight < math.inf:  # NaN fails both comparisons
            raise SynthError(
                f"production {self.lhs} -> {' '.join(self.rhs)}: weight must be finite and > 0"
            )


@dataclass(frozen=True)
class SynthGrammar:
    productions: tuple[Production, ...]
    lexicons: Mapping[str, Mapping[str, tuple[str, ...]]]
    profiles: Mapping[str, OrderProfile]
    start: str = "S"
    # What sampling reads, built once from the fields above. Left out of equality and repr.
    _plan: "_Plan" = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        _validate_grammar(self)
        object.__setattr__(self, "_plan", _Plan(self))

    @property
    def languages(self) -> tuple[str, ...]:
        return tuple(self.lexicons)

    @property
    def nonterminals(self) -> frozenset[str]:
        return frozenset(p.lhs for p in self.productions)

    def recursive_productions(self) -> frozenset[Production]:
        """Productions that can re-derive their own left-hand side."""
        reach: dict[str, set[str]] = {nt: set() for nt in self.nonterminals}
        for p in self.productions:
            reach[p.lhs].update(p.rhs)
        changed = True
        while changed:
            changed = False
            for nt, seen in reach.items():
                extra = set().union(*(reach.get(s, set()) for s in seen)) - seen
                if extra:
                    seen.update(extra)
                    changed = True
        return frozenset(p for p in self.productions if p.lhs in
                         set(p.rhs).union(*(reach.get(s, set()) for s in p.rhs)))


def _validate_grammar(grammar: SynthGrammar) -> None:
    if not grammar.lexicons:
        raise SynthError("grammar defines no languages")
    if set(grammar.lexicons) != set(grammar.profiles):
        raise SynthError("languages with lexicons and languages with profiles differ")

    nonterminals = grammar.nonterminals
    lexicon_items = list(grammar.lexicons.items())
    ref_lang, ref_lex = lexicon_items[0]
    for lang, lex in lexicon_items[1:]:
        if set(lex) != set(ref_lex):
            raise SynthError(f"languages {ref_lang} and {lang} list different preterminals")
        for pre in ref_lex:
            if len(lex[pre]) != len(ref_lex[pre]):
                raise SynthError(
                    f"preterminal {pre}: {ref_lang} has {len(ref_lex[pre])} words, "
                    f"{lang} has {len(lex[pre])} — concepts cannot align"
                )
    for lang, lex in lexicon_items:
        words = [w for wordlist in lex.values() for w in wordlist]
        if len(words) != len(set(words)):
            dup = next(w for w in words if words.count(w) > 1)
            raise SynthError(f"language {lang}: word {dup!r} appears under two preterminals")
        for pre, wordlist in lex.items():
            if not wordlist:
                raise SynthError(f"language {lang}: preterminal {pre} has no words")
    preterminals = frozenset(ref_lex)

    overlap = nonterminals & preterminals
    if overlap:
        raise SynthError(f"symbol(s) both expanded and lexicalized: {sorted(overlap)}")
    if grammar.start not in nonterminals:
        raise SynthError(f"start symbol {grammar.start} has no productions")
    for p in grammar.productions:
        for sym in p.rhs:
            if sym not in nonterminals and sym not in preterminals:
                raise SynthError(
                    f"production {p.lhs} -> {' '.join(p.rhs)}: symbol {sym!r} is neither "
                    f"expanded by a rule nor lexicalized"
                )
        # A right-hand side against the canonical order, both children matched
        # by prefix. A grammar author who wants OV order writes the grammar
        # canonically and flips the language's profile instead; allowing both
        # ways would make the profile-delta oracle ambiguous.
        if len(p.rhs) == 2:
            for _, _, parent, first, second in ORDER_FEATURES.values():
                if (p.lhs == parent and p.rhs[0].startswith(second.rstrip("*"))
                        and p.rhs[1].startswith(first.rstrip("*"))):
                    raise SynthError(
                        f"production {p.lhs} -> {' '.join(p.rhs)} is written against the "
                        f"canonical order; set the language's order profile instead"
                    )


class _Plan:
    """What sampling reads from a grammar and its languages, worked out once.

    ``choices[symbol][depth]``, for each nonterminal and each depth 0..``cap``
    (``MAX_DEPTH`` at build time), is the options a node there draws from
    and the running sums of their weights: below the cap every production,
    a recursive one weighted ``weight * DEPTH_DECAY**depth``; at the cap the
    all-preterminal ones, undamped, or ``None`` if there are none; ``()`` if
    the weights all underflow to 0.0. The options repeat their last one, so
    ``bisect_right`` over the sums is the draw rule, clamp included. An
    option is its right-hand side and whether each language, in
    ``languages`` order, swaps it. ``heads`` gives each nonterminal's piece
    `` (LABEL``, ``leaves`` each preterminal's number of concepts and each
    concept's piece `` (LABEL WORD)`` in each language, escaped.
    """

    __slots__ = ("cap", "languages", "choices", "heads", "leaves")

    def __init__(self, grammar: SynthGrammar) -> None:
        self.cap = MAX_DEPTH
        self.languages = tuple(grammar.lexicons)
        first_lexicon = next(iter(grammar.lexicons.values()))
        productions: dict[str, list[Production]] = {}
        for p in grammar.productions:
            productions.setdefault(p.lhs, []).append(p)
        labels = {sym: escape_symbol(sym) for sym in (*productions, *first_lexicon)}
        if not all(labels.values()):
            raise SynthError("grammar symbols must be non-empty")
        leaves: dict[str, list[list[str]]] = {}
        for language, lexicon in grammar.lexicons.items():
            for pre, words in lexicon.items():
                escaped = [escape_symbol(w) for w in words]
                if not all(escaped):
                    raise SynthError(f"language {language}: preterminal {pre} has an empty word")
                leaves.setdefault(pre, []).append([f" ({labels[pre]} {w})" for w in escaped])
        self.leaves = {pre: (len(texts[0]), tuple(zip(*texts))) for pre, texts in leaves.items()}
        self.heads = {lhs: f" ({labels[lhs]}" for lhs in productions}

        profiles = [grammar.profiles[language] for language in self.languages]
        option = {p: (p.rhs, tuple(len(p.rhs) == 2 and _swaps(p.lhs, *p.rhs, profile)
                                   for profile in profiles))
                  for p in grammar.productions}

        def choice(ps: list[Production], weights: list[float]) -> tuple | None:
            if not ps:
                return None
            sums = list(itertools.accumulate(weights))  # 0.0 + w is w: the sums from 0.0
            return ((*(option[p] for p in ps), option[ps[-1]]), sums) if sums[-1] else ()

        recursive = grammar.recursive_productions()
        self.choices = {}
        for lhs, ps in productions.items():
            closed = [p for p in ps if all(s in first_lexicon for s in p.rhs)]
            self.choices[lhs] = (
                *(choice(ps, [p.weight * DEPTH_DECAY**depth if p in recursive else p.weight
                              for p in ps]) for depth in range(self.cap)),
                choice(closed, [p.weight for p in closed]),
            )


#: Side A, side B, and ``(position_in_a, position_in_b)`` per derivation leaf,
#: with the sides as trees (``Pair``) or as treebank lines (``LinePair``).
Pair = tuple[TreeNode, TreeNode, tuple[tuple[int, int], ...]]
LinePair = tuple[str, str, tuple[tuple[int, int], ...]]


@dataclass(frozen=True)
class ParallelCorpus:
    """Aligned tree pairs for two languages drawn from one grammar."""

    pairs: tuple[Pair, ...]
    seed: int
    languages: tuple[str, str]


def _swaps(parent: str, first: str, second: str, profile: OrderProfile) -> bool:
    """Whether ``profile`` swaps the canonical two-child constituent
    ``parent -> first second``: it sets the feature that orders it to the other value."""
    values = profile.as_features().values()
    for value, (_, other, lhs, *children) in zip(values, ORDER_FEATURES.values()):
        if value == other and parent == lhs:
            return all(label.startswith(child[:-1]) if child.endswith("*") else label == child
                       for label, child in zip((first, second), children))
    return False


def _pair_languages(grammar: SynthGrammar, languages: tuple[str, str] | None) -> tuple[str, str]:
    """The two languages of a pair: as given, each checked to be one of the
    grammar's, else the grammar's first two."""
    if languages is None:
        if len(grammar.languages) < 2:
            raise SynthError("grammar defines fewer than two languages")
        return grammar.languages[0], grammar.languages[1]
    lang_a, lang_b = languages
    for language in languages:
        if language not in grammar.lexicons:
            raise SynthError(f"unknown language {language!r}; grammar has {list(grammar.languages)}")
    return lang_a, lang_b


def _inverse(order: tuple[int, ...]) -> list[int]:
    """Where each origin stands in ``order``."""
    positions = [0] * len(order)
    for position, origin in enumerate(order):
        positions[origin] = position
    return positions


def sample_lines(grammar: SynthGrammar, rng: Rng, *, languages: tuple[str, str] | None = None
                 ) -> LinePair:
    """Sample one derivation straight into both languages' treebank lines.

    One pre-order walk makes every draw. A nonterminal takes one weighted
    draw for its right-hand side (the rule in the module docstring), then
    expands those symbols in the order written; a preterminal takes one
    ``randbelow`` draw for its concept and becomes a leaf ``(LABEL WORD)`` on
    each side with the next origin. Each side appends the plan's pieces,
    and its leaves' origins, in the order written; where the plan says a
    side swaps a two-child constituent, that side's pieces and origins of the
    two kids trade places once both are written. Joined, less the first
    space, the pieces are the ``serialize`` form. Origins therefore number
    the leaves in canonical pre-order, the same origin on both sides marks
    the same concept occurrence, and the alignment lists
    ``(position_in_a, position_in_b)`` for each origin in turn. A derivation
    that the plan's depth cap strands is dropped and sampled again,
    continuing on the same stream, up to ``MAX_RETRIES`` attempts in all.
    """
    lang_a, lang_b = _pair_languages(grammar, languages)
    plan = grammar._plan
    a, b = plan.languages.index(lang_a), plan.languages.index(lang_b)
    choices, heads, leaves = plan.choices, plan.heads, plan.leaves
    randbelow, random = rng.randbelow, rng.random
    parts_a, parts_b, order_a, order_b = [], [], [], []
    put_a, put_b = parts_a.append, parts_b.append

    def expand(symbol: str, depth: int) -> None:
        leaf = leaves.get(symbol)
        if leaf is not None:
            n, texts = leaf
            text = texts[randbelow(n)]
            put_a(text[a])
            put_b(text[b])
            origin = len(order_a)
            order_a.append(origin)
            order_b.append(origin)
            return
        entry = choices[symbol][depth]
        if not entry:
            if entry is None:
                raise _DepthExceeded
            raise ValueError("weights sum to zero")
        options, sums = entry
        rhs, swapped = options[bisect_right(sums, random() * sums[-1])]
        head, depth = heads[symbol], depth + 1
        put_a(head)
        put_b(head)
        flip_a, flip_b = swapped[a], swapped[b]
        if flip_a or flip_b:
            p0, o0 = len(parts_a), len(order_a)
            expand(rhs[0], depth)
            p1, o1 = len(parts_a), len(order_a)
            expand(rhs[1], depth)
            for flip, parts, order in ((flip_a, parts_a, order_a), (flip_b, parts_b, order_b)):
                if flip:  # the two kids' pieces and origins trade places
                    parts[p0:], order[o0:] = parts[p1:] + parts[p0:p1], order[o1:] + order[o0:o1]
        else:
            for s in rhs:
                expand(s, depth)
        put_a(")")
        put_b(")")

    try:
        for _ in range(MAX_RETRIES):
            try:
                expand(grammar.start, 0)
                break
            except _DepthExceeded:
                for written in (parts_a, parts_b, order_a, order_b):
                    written.clear()
        else:
            raise SynthError(f"no derivation closed within depth {plan.cap} "
                             f"after {MAX_RETRIES} attempts")
    finally:
        expand = None  # it refers to itself: the pair's lists are freed now, not at a collection
    line_a, line_b = "".join(parts_a)[1:], "".join(parts_b)[1:]
    return line_a, line_b, tuple(zip(_inverse(order_a), _inverse(order_b)))


def sample_pair(grammar: SynthGrammar, rng: Rng, *, languages: tuple[str, str] | None = None
                ) -> Pair:
    """Sample one derivation into both languages' trees: the lines of
    :func:`sample_lines`, with the same draws and alignment, each scanned
    into a tree whose leaves carry the origins that the walk recorded."""
    return _trees(*sample_lines(grammar, rng, languages=languages))


def _trees(line_a: str, line_b: str, alignment: tuple[tuple[int, int], ...]) -> Pair:
    """Both lines scanned once; as each bracket closes, its leaves trade their
    position for the origin that the walk recorded there."""
    trees = []
    for line, positions in zip((line_a, line_b), zip(*alignment)):
        order = _inverse(positions)

        def close(label: str, kids: list[TreeNode]) -> None:
            for k, kid in enumerate(kids):
                if kid.token is not None:
                    kids[k] = _new(TreeNode, (kid.label, (), kid.token, order[kid.origin]))

        trees.append(scan_ptb(line, close=close)[1])
    return trees[0], trees[1], alignment


def corpus_lines(
    grammar: SynthGrammar,
    n: int,
    seed: int,
    languages: tuple[str, str] | None = None,
) -> tuple[tuple[str, str], Iterator[LinePair]]:
    """The two languages and an iterator over n line pairs, pair i drawn
    from stream ``(seed, i)`` as it is consumed. ``n`` and the languages are
    checked now, before any pair is drawn."""
    if n < 1:
        raise SynthError(f"sentence count must be >= 1, got {n}")
    languages = _pair_languages(grammar, languages)
    stream = run_streams(seed)
    return languages, (sample_lines(grammar, stream(i), languages=languages) for i in range(n))


def corpus_pairs(grammar: SynthGrammar, n: int, seed: int, languages: tuple[str, str] | None = None
                 ) -> tuple[tuple[str, str], Iterator[Pair]]:
    """:func:`corpus_lines` with each line pair scanned into trees, as by :func:`sample_pair`."""
    languages, lines = corpus_lines(grammar, n, seed, languages)
    return languages, (_trees(*line_pair) for line_pair in lines)


def format_alignment(alignment: Iterable[tuple[int, int]]) -> str:
    return "\t".join(f"{i}-{j}" for i, j in alignment)


def write_lines(lines: Iterable[LinePair], fh_a: IO[str], fh_b: IO[str], fh_align: IO[str]) -> None:
    """Each line pair as it comes: its treebank line to each side's handle and an alignment line."""
    for line_a, line_b, alignment in lines:
        fh_a.write(line_a + "\n")
        fh_b.write(line_b + "\n")
        fh_align.write(format_alignment(alignment) + "\n")


def write_corpus(corpus: ParallelCorpus, path_a: str, path_b: str, path_align: str) -> None:
    """Both sides as treebank files plus one alignment line per pair. The
    files replace their paths only once every pair is written, so an error
    part-way leaves no partial output."""
    with replace_on_success(path_a, path_b, path_align) as handles:
        write_lines(((serialize(a), serialize(b), alignment) for a, b, alignment in corpus.pairs),
                    *handles)


def lexicon_map(grammar: SynthGrammar, source: str, target: str) -> dict[str, str]:
    """Word-for-word translation table induced by the shared concepts."""
    _pair_languages(grammar, (source, target))
    src_lex, tgt_lex = grammar.lexicons[source], grammar.lexicons[target]
    return {word: tgt_lex[pre][concept]
            for pre, words in src_lex.items() for concept, word in enumerate(words)}


def translate_tree(grammar: SynthGrammar, tree: TreeNode, source: str, target: str) -> TreeNode:
    """Swap the lexicon, keeping structure, order, and origins."""
    # Tree tokens are stored in escaped form; key the table accordingly.
    mapping = {escape_symbol(w): t for w, t in lexicon_map(grammar, source, target).items()}

    def translate(node: TreeNode) -> TreeNode:
        if node.token not in mapping:
            raise SynthError(f"word {node.token!r} not in the {source} lexicon")
        return leaf(node.label, mapping[node.token], origin=node.origin)

    return rebuild(tree, lambda node, kids: TreeNode(node.label, tuple(kids)), leaf=translate)


def delta_rules(grammar: SynthGrammar, source: str, target: str) -> tuple[ReorderRule, ...]:
    """Reorder rules that carry the source order to the target order.

    For each differing feature: the built-in rule when the source side is
    canonical, otherwise its inverse (the source already sits on the
    swapped side, so the patterns must be read back-to-front).
    """
    _pair_languages(grammar, (source, target))
    src = grammar.profiles[source].as_features()
    tgt = grammar.profiles[target].as_features()
    return tuple(BUILTIN_RULES[f] if src[f] == canonical else inverse_rule(BUILTIN_RULES[f])
                 for f, (canonical, *_) in ORDER_FEATURES.items() if src[f] != tgt[f])


# ---------------------------------------------------------------------------
# Grammar file format (see docs/grammar-format.md)


def parse_grammar(text: str, origin: str = "<string>") -> SynthGrammar:
    start = "S"
    productions: list[Production] = []
    profiles: dict[str, OrderProfile] = {}
    lexicons: dict[str, dict[str, tuple[str, ...]]] = {}

    # Lines are cut at "\n" alone, as read_lines counts them, and at a "#".
    for lineno, raw in enumerate(text.split("\n"), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        keyword = fields[0]
        try:
            if keyword == "start":
                if len(fields) != 2:
                    raise SynthError("expected 'start SYMBOL'")
                start = fields[1]
            elif keyword == "language":
                if len(fields) < 2:
                    raise SynthError("expected 'language TAG [FEATURE=VALUE ...]'")
                tag = fields[1]
                if tag in profiles:
                    raise SynthError(f"language {tag} declared twice")
                features = {}
                for item in fields[2:]:
                    feature, eq, value = item.partition("=")
                    if not eq:
                        raise SynthError(f"expected FEATURE=VALUE, got {item!r}")
                    features[feature] = value
                profiles[tag] = OrderProfile.from_features(features)
                lexicons.setdefault(tag, {})
            elif keyword == "rule":
                if "->" not in fields:
                    raise SynthError("expected 'rule LHS -> RHS... [: WEIGHT]'")
                arrow = fields.index("->")
                lhs, rest = fields[1:arrow], fields[arrow + 1 :]
                weight = 1.0
                if ":" in rest:
                    colon = rest.index(":")
                    rest, weight_fields = rest[:colon], rest[colon + 1 :]
                    if len(weight_fields) != 1:
                        raise SynthError("expected a single weight after ':'")
                    try:
                        weight = float(weight_fields[0])
                    except ValueError:
                        raise SynthError(f"bad weight {weight_fields[0]!r}") from None
                if len(lhs) != 1 or not rest:
                    raise SynthError("expected 'rule LHS -> RHS... [: WEIGHT]'")
                productions.append(Production(lhs[0], tuple(rest), weight))
            elif keyword == "lex":
                if len(fields) < 4:
                    raise SynthError("expected 'lex LANGUAGE PRETERMINAL WORD...'")
                tag, pre, words = fields[1], fields[2], fields[3:]
                if tag not in lexicons:
                    raise SynthError(f"language {tag} not declared")
                if pre in lexicons[tag]:
                    raise SynthError(f"lexicon for {tag}/{pre} given twice")
                lexicons[tag][pre] = tuple(words)
            else:
                raise SynthError(f"unknown directive {keyword!r}")
        except SynthError as exc:
            raise SynthError(f"{origin}:{lineno}: {exc}") from exc

    try:
        return SynthGrammar(tuple(productions), lexicons, profiles, start)
    except SynthError as exc:
        raise SynthError(f"{origin}: {exc}") from exc


def load_grammar(path: str) -> SynthGrammar:
    return parse_grammar("\n".join(text for _, _, text in read_lines([path])), origin=path)


#: Two-language demo: same derivation process, opposite settings of all
#: three order features, disjoint vocabularies.
DEMO_GRAMMAR_TEXT = """\
# Demo grammar: two languages, one derivation process. Language alpha is
# verb-object / prepositional / adjective-noun; language beta is the
# mirror image on all three features.
start S
language alpha 83A=VO 85A=Pre 87A=AN
language beta 83A=OV 85A=Post 87A=NA

rule S -> NP VP : 1
rule VP -> VB NP : 3
rule VP -> VB : 1
rule NP -> JJ NN : 2
rule NP -> NN : 2
rule NP -> PRP : 1
rule NP -> NP PP : 1
rule PP -> IN NP : 1

lex alpha PRP i you they
lex alpha VB see read hold take
lex alpha NN paper tree bird stone book
lex alpha JJ red small old new
lex alpha IN on under near

lex beta PRP wo ni tamen
lex beta VB kan du na qu
lex beta NN zhi mu niao shitou shu
lex beta JJ hong xiao jiu xin
lex beta IN shang xia pang
"""


def demo_grammar() -> SynthGrammar:
    return parse_grammar(DEMO_GRAMMAR_TEXT, origin="<demo>")
