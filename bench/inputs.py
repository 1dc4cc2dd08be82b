"""Seeded input generators for the benchmark workloads.

The generators live here, not in ``treelab``, so that the inputs of a seed
stay the same when the program changes. Only ``random.Random`` seeded with
a string and the frozen ``numpy.random.RandomState`` stream are used; both
give the same numbers for the same seed on every run.

``ensure_inputs`` caches the files of one (workload, size, seed) in a
directory whose name includes a digest of this file, so a change to the
generators can never serve stale inputs.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import os
import random
import shutil
import struct
from pathlib import Path

GENERATOR_DIGEST = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:12]

# ---------------------------------------------------------------------------
# Vocabulary: synthetic English-like words, fixed for every seed.

_ONSETS = "b c d f g h j k l m n p r s t v w y z br cl dr fl gr pl pr sh st th tr wh".split()
_VOWELS = "a e i o u ea ai ou oo".split()
_CODAS = ["", "", "n", "r", "s", "t", "l", "nd", "st", "ck", "m", "rt"]


def _make_words(rng: random.Random, count: int, syllables: tuple[int, int]) -> list[str]:
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < count:
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
            for _ in range(rng.randint(*syllables))
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class _Zipf:
    """Draws from a word list with probability proportional to 1/rank**s."""

    def __init__(self, words: list[str], exponent: float) -> None:
        self.words = words
        self.cum = list(itertools.accumulate(1.0 / (r + 1) ** exponent for r in range(len(words))))

    def draw(self, rng: random.Random) -> str:
        i = bisect.bisect_right(self.cum, rng.random() * self.cum[-1])
        return self.words[min(i, len(self.words) - 1)]


def _lexicon() -> dict[str, _Zipf]:
    rng = random.Random("treelab-bench-lexicon")
    nouns = _make_words(rng, 2400, (1, 3))
    verbs = _make_words(rng, 700, (1, 2))
    adjectives = _make_words(rng, 900, (1, 3))
    closed = {
        "DT": "the a an this that these every some no each".split(),
        "IN": "of in on at for with from by about under near after before".split(),
        "PRP": "he she it they we you i".split(),
        "CC": "and but or yet".split(),
        "MD": "will can may must should would".split(),
        "TO": ["to"],
        "WDT": "that which".split(),
    }
    lex = {tag: _Zipf(words, 0.8) for tag, words in closed.items()}
    lex["NN"] = _Zipf(nouns, 1.05)
    lex["NNS"] = _Zipf([w + "s" for w in nouns], 1.05)
    lex["NNP"] = _Zipf([w.capitalize() for w in nouns[::3]], 1.0)
    lex["VB"] = _Zipf(verbs, 1.05)
    lex["VBD"] = _Zipf([w + "ed" for w in verbs], 1.05)
    lex["VBZ"] = _Zipf([w + "s" for w in verbs], 1.05)
    lex["VBG"] = _Zipf([w + "ing" for w in verbs], 1.05)
    lex["JJ"] = _Zipf(adjectives, 1.05)
    lex["RB"] = _Zipf([w + "ly" for w in adjectives[::2]], 1.0)
    return lex


_LEX = _lexicon()

# ---------------------------------------------------------------------------
# English-like PCFG treebank.

MAX_DEPTH = 9  # nonterminal depth cap; leaves sit at most two levels deeper
COORDINATION = 0.5  # chance of one more coordinated clause at the root


class _TreeSampler:
    """Recursive PCFG over PTB-style labels, emitting bracketed strings.

    A root sentence coordinates a geometric number of clauses, and the
    recursive expansions inside a clause (PP attachment, relative clauses,
    clausal complements, NP coordination) are damped with depth. That gives
    the heavy length tail of newswire text while keeping nesting far below
    the depth at which the program's recursive walkers fail.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def _word(self, tag: str) -> str:
        return f"({tag} {_LEX[tag].draw(self.rng)})"

    def _pick(self, options: list[tuple[float, bool, object]], depth: int):
        """options: (weight, recursive, builder); recursion decays with depth."""
        live = [(w * (0.8 ** depth) if rec else w, b) for w, rec, b in options
                if not (rec and depth >= MAX_DEPTH)]
        x = self.rng.random() * sum(w for w, _ in live)
        for w, builder in live:
            x -= w
            if x < 0:
                return builder
        return live[-1][1]

    def sentence(self) -> str:
        """A root S: one clause, or a flat coordination of a geometric number of them."""
        clauses = [self.clause(1)]
        while len(clauses) < 8 and self.rng.random() < COORDINATION:
            clauses.append(f"{self._word('CC')} {self.clause(1)}")
        if len(clauses) == 1:
            return clauses[0]
        return f"(S {' '.join(clauses)})"

    def clause(self, depth: int) -> str:
        build = self._pick([
            (8.0, False, lambda d: f"(S {self.np(d + 1)} {self.vp(d + 1)})"),
            (1.2, False, lambda d: f"(S {self.pp(d + 1)} {self.np(d + 1)} {self.vp(d + 1)})"),
            (0.8, False, lambda d: f"(S {self.np(d + 1)} {self.vp(d + 1)} {self._advp()})"),
        ], depth)
        return build(depth)

    def _advp(self) -> str:
        return f"(ADVP {self._word('RB')})"

    def np(self, depth: int) -> str:
        w = self._word
        build = self._pick([
            (3.0, False, lambda d: f"(NP {w('DT')} {w('NN')})"),
            (2.0, False, lambda d: f"(NP {w('DT')} {w('JJ')} {w('NN')})"),
            (1.4, False, lambda d: f"(NP {w('JJ')} {w('NNS')})"),
            (1.0, False, lambda d: f"(NP {w('NNS')})"),
            (1.0, False, lambda d: f"(NP {w('NNP')})"),
            (0.5, False, lambda d: f"(NP {w('NNP')} {w('NNP')})"),
            (1.5, False, lambda d: f"(NP {w('PRP')})"),
            (0.6, False, lambda d: f"(NP {w('DT')} (ADJP {w('RB')} {w('JJ')}) {w('NN')})"),
            (2.2, True, lambda d: f"(NP {self.np(d + 1)} {self.pp(d + 1)})"),
            (0.6, True, lambda d: f"(NP {self.np(d + 1)} (SBAR {w('WDT')} {self.clause(d + 2)}))"),
            (0.5, True, lambda d: f"(NP {self.np(d + 1)} {w('CC')} {self.np(d + 1)})"),
        ], depth)
        return build(depth)

    def pp(self, depth: int) -> str:
        return f"(PP {self._word('IN')} {self.np(depth + 1)})"

    def vp(self, depth: int) -> str:
        w = self._word
        verb = self.rng.choice(("VBD", "VBD", "VBZ", "VB"))
        build = self._pick([
            (4.0, False, lambda d: f"(VP {w(verb)} {self.np(d + 1)})"),
            (1.0, False, lambda d: f"(VP {w(verb)})"),
            (1.6, False, lambda d: f"(VP {w(verb)} {self.np(d + 1)} {self.pp(d + 1)})"),
            (0.9, False, lambda d: f"(VP {w(verb)} {self.pp(d + 1)})"),
            (0.6, True, lambda d: f"(VP {w('MD')} {self.vp(d + 1)})"),
            (0.9, True, lambda d: f"(VP {w(verb)} (SBAR {w('IN')} {self.clause(d + 2)}))"),
            (0.6, True, lambda d: f"(VP {w(verb)} (S (VP {w('TO')} {self.vp(d + 3)})))"),
        ], depth)
        return build(depth)


def _malformed(tree: str, kind: int) -> str:
    """A line that fails to parse: unbalanced, trailing junk, or a leaf with children."""
    if kind == 0:
        return tree[:-1]
    if kind == 1:
        return tree + " )"
    label, rest = tree[1:].split(" ", 1)
    return f"({label} stray {rest}"


def write_treebank(directory: str, seed: int, trees: int) -> dict:
    """``input.trees`` with planted blank, placeholder and malformed lines,
    plus ``clean.trees`` holding only the well-formed lines in order."""
    rng = random.Random(f"wsj-chain:{seed}")
    sampler = _TreeSampler(rng)
    planted = {"blank": 0, "placeholder": 0, "bad": 0}
    lines = 0
    with open(os.path.join(directory, "input.trees"), "w", encoding="utf-8") as raw, open(
        os.path.join(directory, "clean.trees"), "w", encoding="utf-8"
    ) as clean:
        for _ in range(trees):
            roll = rng.random()
            tree = sampler.sentence()
            if roll < 0.005:
                raw.write("\n")
                planted["blank"] += 1
            elif roll < 0.010:
                raw.write("(())\n")
                planted["placeholder"] += 1
            elif roll < 0.012:
                raw.write(_malformed(tree, rng.randrange(3)) + "\n")
                planted["bad"] += 1
            else:
                raw.write(tree + "\n")
                clean.write(tree + "\n")
            lines += 1
    return {"lines": lines, "planted": planted}


# ---------------------------------------------------------------------------
# Zipfian text and token-level embeddings.

_TEXT_VOCAB = _Zipf(_make_words(random.Random("treelab-bench-text"), 9000, (1, 4)), 1.07)


def write_text(directory: str, seed: int, lines: int) -> dict:
    """``text.txt``: lowercase a-z words, Zipfian, 1 to ~60 words per line."""
    rng = random.Random(f"subword-probe:{seed}")
    lengths = []
    with open(os.path.join(directory, "text.txt"), "w", encoding="utf-8") as fh:
        for _ in range(lines):
            n = 1 + min(int(rng.expovariate(1 / 11.0)), 60)
            fh.write(" ".join(_TEXT_VOCAB.draw(rng) for _ in range(n)) + "\n")
            lengths.append(n)
    return {"lines": lines, "words": lengths}


EMBED_DIM = 64
PLANTED_SHARE = 0.85


def write_embeddings(directory: str, seed: int, words_per_line: list[int]) -> None:
    """``source.emb`` / ``target.emb`` in the EMBTOK01 layout.

    Sentence i has one token per word plus a flagged CLS and SEP token.
    For a planted pair both sides are noisy copies of one concept vector;
    otherwise the target side has a concept of its own.
    """
    import numpy as np

    rs = np.random.RandomState(seed % (1 << 32))
    n = len(words_per_line)
    counts = [w + 2 for w in words_per_line]
    concepts = rs.standard_normal((n, EMBED_DIM))
    planted = rs.random_sample(n) < PLANTED_SHARE
    other = rs.standard_normal((n, EMBED_DIM))
    target_concepts = np.where(planted[:, None], concepts, other)
    for name, base in (("source.emb", concepts), ("target.emb", target_concepts)):
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(b"EMBTOK01" + struct.pack("<4I", n, max(counts), EMBED_DIM, 6))
            for i, count in enumerate(counts):
                vectors = base[i] + 1.5 * rs.standard_normal((count, EMBED_DIM))
                flags = bytes([1] + [0] * (count - 2) + [1])
                fh.write(struct.pack("<I", count) + flags + vectors.astype("<f4").tobytes())


# ---------------------------------------------------------------------------


def ensure_inputs(cache_root: str, workload: str, size: dict, seed: int) -> tuple[str, dict]:
    """Return (directory, facts) for the inputs, generating them once per seed."""
    tag = "-".join(f"{k}{v}" for k, v in sorted(size.items()))
    directory = os.path.join(cache_root, f"{GENERATOR_DIGEST}-{workload}-{tag}-seed{seed}")
    facts_path = os.path.join(directory, "facts.json")
    if os.path.exists(facts_path):
        with open(facts_path, encoding="utf-8") as fh:
            return directory, json.load(fh)
    partial = f"{directory}.partial{os.getpid()}"
    shutil.rmtree(partial, ignore_errors=True)
    os.makedirs(partial)
    facts: dict = {}
    if workload == "wsj-chain":
        facts = write_treebank(partial, seed, size["trees"])
    elif workload == "subword-probe":
        text = write_text(partial, seed, size["lines"])
        write_embeddings(partial, seed, text["words"])
        facts = {"lines": text["lines"]}
    # synth-roundtrip has no generated inputs: synthesis is what it measures.
    with open(os.path.join(partial, "facts.json"), "w", encoding="utf-8") as fh:
        json.dump(facts, fh)
    try:
        os.rename(partial, directory)
    except OSError:  # another run finished the same inputs first
        shutil.rmtree(partial, ignore_errors=True)
    with open(facts_path, encoding="utf-8") as fh:
        return directory, json.load(fh)
