"""Controlled modification and measurement of constituency-parsed corpora.

The toolkit groups into six layers:

* ``treebank`` — bracketed-tree parsing, serialization, token origins;
* ``transform`` — order rules, shuffles, and composition removal;
* ``metrics`` — inversion ratio and word-move distance of a modification;
* ``subword`` / ``retrieval`` — vocabulary learning, masking, and
  embedding-based sentence retrieval scoring;
* ``synthlang`` / ``pipeline`` / ``cli`` — paired artificial languages,
  corpus runs, and the ``treelab`` command;
* ``files`` — the line reader and the write protocol with its provenance
  sidecars, which every layer that reads or writes files shares.

Every tree and synth operation that draws random numbers takes a required
``rng``: the stream that :class:`~treelab.rng.SeedScheme` (global seed +
sentence index) names, ``SeedScheme(seed, index).stream()``, which is
``run_streams(seed)(index)``. Output is bit-stable across platforms and
worker counts.

The package re-exports nothing: each name is imported from its module
(``from treelab.treebank import parse_ptb``), so ``import treelab`` loads no
layer and each ``treelab`` subcommand loads only the modules it runs.
"""

from .version import TOOL_VERSION as __version__
