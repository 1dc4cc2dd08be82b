"""The README's command lines parse, and its experiment recipes print its tables.

Every ``treelab ...`` line in a README code block (with ``\\`` continuations
joined) must be accepted by the CLI's own parser, so a documented flag
cannot drift from the real one. The "Experiments" section is then run as
written, block by block in one directory, and each stats row it prints is
checked against pinned figures: the constituent-order and composition
tables that treelab has reported for these corpora and seeds.
"""

from __future__ import annotations

import re
import shlex
import shutil
from pathlib import Path

import pytest

from treelab.cli import SEED_ENV, WORKERS_ENV, build_parser, main
from treelab.pipeline import parse_chain

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
FIXTURE = "tests/fixtures/english_like.trees"
_BLOCK = re.compile(r"^```(\w*)\n(.*?)^```", re.MULTILINE | re.DOTALL)

# label, IR (%), WMD (%), sentences, tokens
ORDER_ROWS = [
    "reorder:83A 19.09 13.96 500 1920",
    "reorder:85A 1.33 1.09 500 1920",
    "reorder:87A 11.59 8.60 500 1920",
    "constituent_shuffle 49.31 28.87 500 1920",
    "word_shuffle 48.05 29.10 500 1920",
]
COMPOSITION_ROWS = [
    "ablate:0:shuffle 53.92 35.15 50 464",
    "ablate:0.5:shuffle 57.79 36.89 50 464",
    "ablate:1:shuffle 51.28 34.22 50 464",
]
LENGTH_ROWS = ["constituent_shuffle 45.91 28.51 53 348"]


def code_blocks(text: str) -> list[tuple[str, str]]:
    return [(m.group(1), m.group(2)) for m in _BLOCK.finditer(text)]


def command_lines(block: str) -> list[list[str]]:
    """The argument lists of the block's ``treelab`` commands."""
    joined = re.sub(r"\\\n\s*", " ", block)
    return [
        shlex.split(line)[1:] for line in joined.splitlines() if line.startswith("treelab ")
    ]


def readme_commands() -> list[list[str]]:
    return [
        argv for lang, block in code_blocks(README) if lang == "sh" for argv in command_lines(block)
    ]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_parses(argv):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"README command rejected by the CLI parser (exit {exc.code}): {argv}")
    if args.command == "transform":
        parse_chain(args.chain)


def stats_rows(table: str) -> list[str]:
    """The rows of a stats table, whitespace collapsed; no header, no rule."""
    return [
        " ".join(line.split())
        for line in table.splitlines()
        if line.strip() and not line.startswith(("source type", "---"))
    ]


def test_experiment_recipes_print_the_pinned_tables(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(SEED_ENV, raising=False)
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    (tmp_path / "tests" / "fixtures").mkdir(parents=True)
    shutil.copy(ROOT / FIXTURE, tmp_path / FIXTURE)
    monkeypatch.chdir(tmp_path)
    section = README.split("\n## Experiments\n", 1)[1].split("\n## ", 1)[0]

    rows: list[str] = []
    documented: list[str] = []
    namespace: dict = {}
    printed = ""
    for lang, block in code_blocks(section):
        if lang == "sh":
            for argv in command_lines(block):
                code = main(argv)
                out, err = capsys.readouterr()
                assert code == 0, err
                if "--stats" in argv:
                    rows.extend(stats_rows(out))
        elif lang == "python":
            exec(compile(block, "README.md", "exec"), namespace)
            printed += capsys.readouterr().out
        elif lang == "text":
            documented.extend(stats_rows(block))

    assert rows == ORDER_ROWS + COMPOSITION_ROWS + LENGTH_ROWS
    assert documented == rows
    assert (namespace["kept"], namespace["total"]) == (110, 253)
    assert printed == "intermediate nodes kept: 110 of 253\n"
