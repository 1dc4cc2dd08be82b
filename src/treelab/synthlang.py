"""Paired artificial languages from one shared derivation process.

A grammar holds weighted productions over nonterminals and preterminals,
plus two or more languages, each contributing a lexicon and an order
profile. Sampling draws a single *unordered* derivation (structure and
concept choices); each language then linearizes that same derivation
under its own word order and vocabulary. The two sides are therefore
word-alignable by construction, and any structural transform applied to
one side has an analytic ground truth on the other.

Production right-hand sides are written in a fixed canonical order:
verb before object, adposition before its complement, adjective before
noun. A language whose profile departs from a canonical value swaps the
two children of the matching constituent at linearization time. The swap
logic here is deliberately self-contained — the reorder rules in
``treelab.transform`` replay the same moves and serve as an independent
cross-check, not as a dependency.

Recursive productions are damped geometrically with depth and a hard
depth cap bounds every derivation; sampling retries a bounded number of
times if the cap strands a nonterminal with no all-preterminal expansion.

Everything sampling needs that depends only on the grammar is worked out
once, when the grammar is built, into a private sampling plan: each
symbol's options and their weights at every depth, the options left at
the depth cap, and the escaped labels and lexicons. A pair then costs only
its own draws and nodes. Corpora are sampled lazily, one pair per seed
stream, and written pair by pair, so memory does not grow with the corpus.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Mapping

from .pipeline import replace_on_success
from .rng import Rng, SeedScheme
from .transform import BUILTIN_RULES, ReorderRule, inverse_rule
from .treebank import TreeNode, escape_symbol, leaf, rebuild, serialize

_new = tuple.__new__

DEPTH_DECAY = 0.5
MAX_DEPTH = 12
MAX_RETRIES = 20

FEATURE_DOMAINS: dict[str, tuple[str, str]] = {
    "83A": ("VO", "OV"),
    "85A": ("Pre", "Post"),
    "87A": ("AN", "NA"),
}
#: The order in which right-hand sides are written in grammar files.
CANONICAL_VALUES = {"83A": "VO", "85A": "Pre", "87A": "AN"}


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
        for feature, value in self.as_features().items():
            if value not in FEATURE_DOMAINS[feature]:
                raise SynthError(
                    f"feature {feature} must be one of {FEATURE_DOMAINS[feature]}, got {value!r}"
                )

    def as_features(self) -> dict[str, str]:
        return {"83A": self.verb_object, "85A": self.adposition, "87A": self.adjective_noun}

    @classmethod
    def from_features(cls, features: Mapping[str, str]) -> "OrderProfile":
        unknown = set(features) - set(FEATURE_DOMAINS)
        if unknown:
            raise SynthError(f"unknown order feature(s): {sorted(unknown)}")
        merged = dict(CANONICAL_VALUES) | dict(features)
        return cls(merged["83A"], merged["85A"], merged["87A"])


CANONICAL_PROFILE = OrderProfile()


@dataclass(frozen=True)
class Production:
    lhs: str
    rhs: tuple[str, ...]
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.rhs:
            raise SynthError(f"production for {self.lhs} has an empty right-hand side")
        if self.weight <= 0:
            raise SynthError(f"production {self.lhs} -> {' '.join(self.rhs)}: weight must be > 0")


@dataclass(frozen=True)
class DerivationNode:
    """Unordered derivation: symbol plus either children or a concept index."""

    symbol: str
    children: tuple["DerivationNode", ...] = ()
    concept: int | None = None


@dataclass(frozen=True)
class SynthGrammar:
    productions: tuple[Production, ...]
    lexicons: Mapping[str, Mapping[str, tuple[str, ...]]]
    profiles: Mapping[str, OrderProfile]
    start: str = "S"
    # What sampling and linearization read, built once from the fields
    # above. Left out of equality and repr.
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

    @property
    def preterminals(self) -> frozenset[str]:
        first = next(iter(self.lexicons.values()))
        return frozenset(first)

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


# Right-hand sides that contradict the canonical writing order. A grammar
# author who wants OV order writes the grammar canonically and flips the
# language's profile instead; allowing both ways would make the
# profile-delta oracle ambiguous.
_ANTI_CANONICAL = (
    ("VP", "NP", "VB"),  # object before verb
    ("PP", "NP", "IN"),  # complement before adposition
    ("NP", "NN", "JJ"),  # noun before adjective
)


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
        if len(p.rhs) == 2:
            for parent, first, second in _ANTI_CANONICAL:
                if p.lhs == parent and p.rhs[0].startswith(first) and p.rhs[1].startswith(second):
                    raise SynthError(
                        f"production {p.lhs} -> {' '.join(p.rhs)} is written against the "
                        f"canonical order; set the language's order profile instead"
                    )


class _Plan:
    """What sampling and linearization read from a grammar, worked out once.

    For each nonterminal: ``options``, the right-hand sides of its
    productions in grammar order; ``weights[symbol][depth]``, their weights
    below the depth cap (``weight * DEPTH_DECAY**depth`` for a production in
    ``recursive``, else ``weight``) for each depth below ``MAX_DEPTH``; and
    ``closed``, the all-preterminal options with their undamped weights, the
    only ones left at the cap. ``arity`` gives each preterminal's number of
    concepts, ``labels`` every symbol escaped, and ``words[language]`` that
    language's lexicon escaped.
    """

    __slots__ = (
        "productions", "recursive", "options", "weights", "closed", "arity", "labels", "words"
    )

    def __init__(self, grammar: SynthGrammar) -> None:
        first_lexicon = next(iter(grammar.lexicons.values()))
        self.arity = {pre: len(words) for pre, words in first_lexicon.items()}
        self.recursive = grammar.recursive_productions()
        self.productions: dict[str, list[Production]] = {}
        for p in grammar.productions:
            self.productions.setdefault(p.lhs, []).append(p)
        self.options = {lhs: tuple(p.rhs for p in ps) for lhs, ps in self.productions.items()}
        self.weights = {
            lhs: tuple(self.damped(lhs, depth) for depth in range(MAX_DEPTH))
            for lhs in self.productions
        }
        closed = {
            lhs: [p for p in ps if all(s in self.arity for s in p.rhs)]
            for lhs, ps in self.productions.items()
        }
        self.closed = {
            lhs: (tuple(p.rhs for p in ps), [p.weight for p in ps]) for lhs, ps in closed.items()
        }
        self.labels = {sym: escape_symbol(sym) for sym in (*self.productions, *self.arity)}
        if not all(self.labels.values()):
            raise SynthError("grammar symbols must be non-empty")
        self.words = {
            lang: {pre: tuple(escape_symbol(w) for w in words) for pre, words in lex.items()}
            for lang, lex in grammar.lexicons.items()
        }
        for lang, lex in self.words.items():
            for pre, words in lex.items():
                if not all(words):
                    raise SynthError(f"language {lang}: preterminal {pre} has an empty word")

    def damped(self, symbol: str, depth: int) -> list[float]:
        """The weights of ``symbol``'s options at ``depth``, below the cap."""
        return [
            p.weight * DEPTH_DECAY**depth if p in self.recursive else p.weight
            for p in self.productions[symbol]
        ]


#: Side A, side B, and ``(position_in_a, position_in_b)`` per derivation leaf.
Pair = tuple[TreeNode, TreeNode, tuple[tuple[int, int], ...]]


@dataclass(frozen=True)
class ParallelCorpus:
    """Aligned tree pairs for two languages drawn from one grammar."""

    pairs: tuple[Pair, ...]
    seed: int
    languages: tuple[str, str]


def _sample_derivation(grammar: SynthGrammar, rng: Rng, max_depth: int) -> DerivationNode:
    """Pre-order: one weighted draw per nonterminal, one concept draw per
    preterminal, children in right-hand-side order."""
    plan = grammar._plan
    arity, options, weights, closed = plan.arity, plan.options, plan.weights, plan.closed

    def expand(symbol: str, depth: int) -> DerivationNode:
        n = arity.get(symbol)
        if n is not None:
            return DerivationNode(symbol, (), rng.randbelow(n))
        if depth >= max_depth:
            choices, chances = closed[symbol]
            if not choices:
                raise _DepthExceeded
        else:
            choices, table = options[symbol], weights[symbol]
            chances = table[depth] if depth < len(table) else plan.damped(symbol, depth)
        rhs = choices[rng.weighted_index(chances)]
        return DerivationNode(symbol, tuple([expand(s, depth + 1) for s in rhs]))

    return expand(grammar.start, 0)


def _swaps(parent: str, first: str, second: str, profile: OrderProfile) -> bool:
    """Whether ``profile`` swaps the canonical two-child constituent
    ``parent -> first second``. Mirrors the built-in reorder patterns."""
    if parent == "VP":
        return profile.verb_object == "OV" and first.startswith("VB") and second == "NP"
    if parent == "PP":
        return profile.adposition == "Post" and first == "IN" and second == "NP"
    if parent == "NP":
        return profile.adjective_noun == "NA" and first.startswith("JJ") and second.startswith("NN")
    return False


def _check_language(grammar: SynthGrammar, language: str) -> None:
    if language not in grammar.lexicons:
        raise SynthError(f"unknown language {language!r}; grammar has {list(grammar.languages)}")


def linearize(grammar: SynthGrammar, derivation: DerivationNode, language: str) -> TreeNode:
    """Order and lexicalize one derivation for one language.

    Leaf origins number derivation leaves in canonical pre-order, so the
    same origin on two sides of a pair marks the same concept occurrence.
    """
    _check_language(grammar, language)
    labels, words = grammar._plan.labels, grammar._plan.words[language]
    profile = grammar.profiles[language]
    counter = itertools.count()

    def build(node: DerivationNode) -> TreeNode:
        if node.concept is not None:
            word = words[node.symbol][node.concept]
            return _new(TreeNode, (labels[node.symbol], (), word, next(counter)))
        kids = [build(c) for c in node.children]
        if not kids:
            raise SynthError(f"derivation node {node.symbol} has neither children nor a concept")
        if len(kids) == 2:
            first, second = node.children
            if _swaps(node.symbol, first.symbol, second.symbol, profile):
                kids.reverse()
        return _new(TreeNode, (labels[node.symbol], tuple(kids), None, None))

    try:
        return build(derivation)
    except KeyError as exc:
        raise SynthError(f"derivation symbol {exc.args[0]!r} is not in the grammar") from None


def _leaf_positions(tree: TreeNode) -> list[int]:
    """Each leaf's position in the yield, indexed by its origin (0..n-1)."""
    order = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.token is None:
            stack.extend(node.children[::-1])
        else:
            order.append(node.origin)
    positions = [0] * len(order)
    for position, origin in enumerate(order):
        positions[origin] = position
    return positions


def _pair_languages(grammar: SynthGrammar, languages: tuple[str, str] | None) -> tuple[str, str]:
    """The two languages to emit: as given (each must exist), else the grammar's first two."""
    if languages is None:
        if len(grammar.languages) < 2:
            raise SynthError("grammar defines fewer than two languages")
        return grammar.languages[0], grammar.languages[1]
    lang_a, lang_b = languages
    _check_language(grammar, lang_a)
    _check_language(grammar, lang_b)
    return lang_a, lang_b


def sample_pair(
    grammar: SynthGrammar,
    rng: Rng,
    *,
    languages: tuple[str, str] | None = None,
    max_depth: int = MAX_DEPTH,
    max_retries: int = MAX_RETRIES,
) -> Pair:
    """Sample one derivation and linearize it for two languages.

    The alignment lists ``(position_in_a, position_in_b)`` for every
    derivation leaf, in canonical pre-order. A retry continues on the same
    stream.
    """
    lang_a, lang_b = _pair_languages(grammar, languages)

    for _ in range(max_retries):
        try:
            derivation = _sample_derivation(grammar, rng, max_depth)
            break
        except _DepthExceeded:
            continue
    else:
        raise SynthError(
            f"no derivation closed within depth {max_depth} after {max_retries} attempts"
        )

    tree_a = linearize(grammar, derivation, lang_a)
    tree_b = linearize(grammar, derivation, lang_b)
    alignment = tuple(zip(_leaf_positions(tree_a), _leaf_positions(tree_b)))
    return tree_a, tree_b, alignment


def corpus_pairs(
    grammar: SynthGrammar,
    n: int,
    seed: int,
    languages: tuple[str, str] | None = None,
) -> tuple[tuple[str, str], Iterator[Pair]]:
    """The two languages and an iterator over n pairs, pair i drawn from
    stream ``(seed, i)`` as it is consumed. ``n`` and the languages are
    checked now, before any pair is drawn."""
    if n < 1:
        raise SynthError(f"sentence count must be >= 1, got {n}")
    languages = _pair_languages(grammar, languages)
    return languages, (
        sample_pair(grammar, SeedScheme(seed, i).stream(), languages=languages) for i in range(n)
    )


def format_alignment(alignment: Iterable[tuple[int, int]]) -> str:
    return "\t".join(f"{i}-{j}" for i, j in alignment)


def parse_alignment(line: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for token in line.split():
        left, _, right = token.partition("-")
        try:
            pairs.append((int(left), int(right)))
        except ValueError as exc:
            raise SynthError(f"bad alignment token {token!r}") from exc
    return tuple(pairs)


def write_pairs(pairs: Iterable[Pair], fh_a: IO[str], fh_b: IO[str], fh_align: IO[str]) -> None:
    """Each pair as it comes: a treebank line to each side's handle and an alignment line."""
    for tree_a, tree_b, alignment in pairs:
        fh_a.write(serialize(tree_a) + "\n")
        fh_b.write(serialize(tree_b) + "\n")
        fh_align.write(format_alignment(alignment) + "\n")


def write_corpus(corpus: ParallelCorpus, path_a: str, path_b: str, path_align: str) -> None:
    """Both sides as treebank files plus one alignment line per pair. The
    files replace their paths only once every pair is written, so an error
    part-way leaves no partial output."""
    with replace_on_success(path_a, path_b, path_align) as handles:
        write_pairs(corpus.pairs, *handles)


def lexicon_map(grammar: SynthGrammar, source: str, target: str) -> dict[str, str]:
    """Word-for-word translation table induced by the shared concepts."""
    for lang in (source, target):
        if lang not in grammar.lexicons:
            raise SynthError(f"unknown language {lang!r}")
    mapping: dict[str, str] = {}
    src_lex, tgt_lex = grammar.lexicons[source], grammar.lexicons[target]
    for pre, words in src_lex.items():
        for concept, word in enumerate(words):
            mapping[word] = tgt_lex[pre][concept]
    return mapping


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
    src = grammar.profiles[source].as_features()
    tgt = grammar.profiles[target].as_features()
    rules = []
    for feature in ("83A", "85A", "87A"):
        if src[feature] == tgt[feature]:
            continue
        rule = BUILTIN_RULES[feature]
        rules.append(rule if src[feature] == CANONICAL_VALUES[feature] else inverse_rule(rule))
    return tuple(rules)


# ---------------------------------------------------------------------------
# Grammar file format (see docs/grammar-format.md)


def parse_grammar(text: str, origin: str = "<string>") -> SynthGrammar:
    start = "S"
    productions: list[Production] = []
    profiles: dict[str, OrderProfile] = {}
    lexicons: dict[str, dict[str, tuple[str, ...]]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        keyword = fields[0]
        where = f"{origin}:{lineno}"
        if keyword == "start":
            if len(fields) != 2:
                raise SynthError(f"{where}: expected 'start SYMBOL'")
            start = fields[1]
        elif keyword == "language":
            if len(fields) < 2:
                raise SynthError(f"{where}: expected 'language TAG [FEATURE=VALUE ...]'")
            tag = fields[1]
            if tag in profiles:
                raise SynthError(f"{where}: language {tag} declared twice")
            features = {}
            for item in fields[2:]:
                feature, eq, value = item.partition("=")
                if not eq:
                    raise SynthError(f"{where}: expected FEATURE=VALUE, got {item!r}")
                features[feature] = value
            try:
                profiles[tag] = OrderProfile.from_features(features)
            except SynthError as exc:
                raise SynthError(f"{where}: {exc}") from exc
            lexicons.setdefault(tag, {})
        elif keyword == "rule":
            try:
                arrow = fields.index("->")
            except ValueError:
                raise SynthError(f"{where}: expected 'rule LHS -> RHS... [: WEIGHT]'") from None
            lhs = fields[1:arrow]
            rest = fields[arrow + 1 :]
            weight = 1.0
            if ":" in rest:
                colon = rest.index(":")
                weight_fields = rest[colon + 1 :]
                rest = rest[:colon]
                if len(weight_fields) != 1:
                    raise SynthError(f"{where}: expected a single weight after ':'")
                try:
                    weight = float(weight_fields[0])
                except ValueError:
                    raise SynthError(f"{where}: bad weight {weight_fields[0]!r}") from None
            if len(lhs) != 1 or not rest:
                raise SynthError(f"{where}: expected 'rule LHS -> RHS... [: WEIGHT]'")
            try:
                productions.append(Production(lhs[0], tuple(rest), weight))
            except SynthError as exc:
                raise SynthError(f"{where}: {exc}") from exc
        elif keyword == "lex":
            if len(fields) < 4:
                raise SynthError(f"{where}: expected 'lex LANGUAGE PRETERMINAL WORD...'")
            tag, pre, words = fields[1], fields[2], fields[3:]
            if tag not in lexicons:
                raise SynthError(f"{where}: language {tag} not declared")
            if pre in lexicons[tag]:
                raise SynthError(f"{where}: lexicon for {tag}/{pre} given twice")
            lexicons[tag][pre] = tuple(words)
        else:
            raise SynthError(f"{where}: unknown directive {keyword!r}")

    try:
        return SynthGrammar(tuple(productions), lexicons, profiles, start)
    except SynthError as exc:
        raise SynthError(f"{origin}: {exc}") from exc


def load_grammar(path: str) -> SynthGrammar:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SynthError(f"cannot read {path}: {exc}") from exc
    return parse_grammar(text, origin=path)


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
