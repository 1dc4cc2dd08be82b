"""Controlled modification and measurement of constituency-parsed corpora.

The toolkit groups into five layers:

* ``treebank`` — bracketed-tree parsing, serialization, token origins;
* ``transform`` — order rules, shuffles, and composition removal;
* ``metrics`` — inversion ratio and word-move distance of a modification;
* ``subword`` / ``retrieval`` — vocabulary learning, masking, and
  embedding-based sentence retrieval scoring;
* ``synthlang`` / ``pipeline`` / ``cli`` — paired artificial languages,
  corpus runs, and the ``treelab`` command.

Every tree and synth operation that draws random numbers takes a required
``rng``: the stream that :class:`~treelab.rng.SeedScheme` (global seed +
sentence index) names, ``SeedScheme(seed, index).stream()``. Output is
bit-stable across platforms and worker counts.
"""

from .metrics import (
    AlignedPermutation,
    AlignmentError,
    CorpusStats,
    StatsAccumulator,
    align_by_surface,
    alignment,
    corpus_stats,
    inversion_count,
    inversion_ratio,
    word_move_distance,
)
from .rng import Rng, SeedScheme
from .subword import (
    BpeModel,
    MaskingConfig,
    bpe_apply,
    bpe_decode,
    bpe_learn,
    mask_tokens,
)
from .synthlang import SynthGrammar, corpus_pairs, demo_grammar, sample_pair
from .transform import (
    BUILTIN_RULES,
    AblationSpec,
    ReorderRule,
    apply_reorder,
    constituent_shuffle,
    inverse_rule,
    remove_composition,
    word_shuffle,
)
from .treebank import (
    Sentence,
    TreeNode,
    TreeParseError,
    parse_ptb,
    read_treebank,
    serialize,
    write_treebank,
    yield_sentence,
)
from .version import TOOL_VERSION as __version__

__all__ = [
    "AblationSpec",
    "AlignedPermutation",
    "AlignmentError",
    "BUILTIN_RULES",
    "BpeModel",
    "CorpusStats",
    "MaskingConfig",
    "ReorderRule",
    "Rng",
    "SeedScheme",
    "Sentence",
    "StatsAccumulator",
    "SynthGrammar",
    "TreeNode",
    "TreeParseError",
    "align_by_surface",
    "alignment",
    "apply_reorder",
    "bpe_apply",
    "bpe_decode",
    "bpe_learn",
    "constituent_shuffle",
    "corpus_pairs",
    "corpus_stats",
    "demo_grammar",
    "inverse_rule",
    "inversion_count",
    "inversion_ratio",
    "mask_tokens",
    "parse_ptb",
    "read_treebank",
    "remove_composition",
    "sample_pair",
    "serialize",
    "word_move_distance",
    "word_shuffle",
    "write_treebank",
    "yield_sentence",
    "__version__",
]
