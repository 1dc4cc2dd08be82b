"""Reading inputs and writing outputs: the one line reader and the one write protocol.

:func:`read_lines` is the one UTF-8 reader of text inputs. Every subcommand
writes through :func:`recorded`. No output may be another output, a sidecar or
an input. Each output, reports included, gets a ``<path>.provenance.json``
sidecar recording the tool version, the effective configuration, the seed and
worker count (null on a subcommand without the option), and SHA-256 digests of
every file the command read and of the bytes written to the output (null for a
pipe or device). A run stages all its outputs and sidecars and replaces their
files together at the end, or none of them: a failed read, write, worker or
interrupt before then leaves every earlier file as it was. Sidecars contain no
timestamps, so a rerun with the same inputs and seed reproduces them byte for
byte (except for the recorded worker count, which is part of the configuration).

This module uses only the standard library and :mod:`treelab.version`, so a
subcommand that writes through it loads no other layer.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from collections import Counter
from contextlib import contextmanager, suppress
from itertools import repeat
from typing import IO, Iterable, Iterator, Mapping, Sequence

from .version import TOOL_NAME, TOOL_VERSION

SIDECAR_SUFFIX = ".provenance.json"


class PipelineError(Exception):
    """Hard runtime failure; maps to exit status 1.

    ``settings`` lists the settings (config keys) the error is about, most
    telling first; ``missing`` says that nothing gave them. Only ``cli.main``
    says where they came from."""

    def __init__(self, message: str, settings: Sequence[str] = (), missing: bool = False):
        super().__init__(message)
        self.settings, self.missing = tuple(settings), missing


class UsageError(PipelineError):
    """Invalid invocation; maps to exit status 2."""


def read_lines(paths: Sequence[str]) -> Iterator[tuple[str, int, str]]:
    """``(path, lineno, text)`` over the concatenated UTF-8 files, newlines
    stripped, each file opened when the one before it is done. A file that
    cannot be opened or read raises :class:`PipelineError` naming it, or, for a
    byte that is not UTF-8, naming ``PATH:LINE`` where the file can be read
    again from its start, else naming only the file. No file is opened twice."""
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                try:
                    for lineno, line in enumerate(fh, start=1):
                        yield path, lineno, line.rstrip("\n")
                except UnicodeDecodeError as exc:
                    where = _undecodable(fh) or f" {exc}"
                    raise PipelineError(f"cannot read {path}:{where}") from exc
        except OSError as exc:
            raise PipelineError(f"cannot read {path}: {exc}") from exc


def _undecodable(fh: io.TextIOWrapper) -> str | None:
    """``LINE: REASON`` for the first line of the open file ``fh``, read again
    from its start and counted as in text mode, that is not UTF-8; REASON's
    position is the bad byte's offset in that line. None for a pipe or device,
    which cannot be read again."""
    if not fh.seekable():
        return None
    fh.reconfigure(errors="surrogateescape")  # bad bytes kept
    fh.seek(0)
    for lineno, line in enumerate(fh, start=1):
        try:
            line.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as exc:
            return f"{lineno}: {exc}"
    return None


class _Output(io.FileIO):
    """A raw output file that adds what it writes to ``sha256`` (None for a
    pipe or device), and whose failed write or close raises ``cannot write NAME``."""

    def write(self, data):
        written = _named(self.name, super().write, data)
        if self.sha256 is not None:
            self.sha256.update(data[:written])
        return written

    def close(self) -> None:
        _named(self.name, super().close)


def _named(path: str, call, *args):
    """``call(*args)``, with an ``OSError`` raised as ``cannot write PATH: REASON``."""
    try:
        return call(*args)
    except OSError as exc:
        raise PipelineError(f"cannot write {path}: {exc.strerror}") from exc


@contextmanager
def replace_on_success(*paths: str) -> Iterator[tuple[IO[str], ...]]:
    """One text handle per path; the files become ``paths`` only if the ``with`` block succeeds.

    Each is written as a temporary file in the directory of the file its path
    names (through any symlinks). On exit every handle is closed, and then
    every temporary file is renamed over its file in one loop, so an error
    before that loop leaves every existing file as it was and no temporary file
    behind. A device or pipe is written directly: it keeps no earlier output.
    A failed open, write, flush, close or rename raises ``cannot write PATH``.
    """
    handles: list[IO[str]] = []
    staged: list[tuple[str, str, str]] = []  # (temporary, target, path)
    try:
        for path in paths:
            target = os.path.realpath(path)
            tmp = None
            if not os.path.exists(target) or os.path.isfile(target):
                tmp = f"{os.path.dirname(target)}/.{os.path.basename(target)}.{os.urandom(6).hex()}.tmp"
            raw = _named(path, _Output, tmp or path, "x" if tmp else "w")  # "x": a new file
            raw.name, raw.sha256 = path, hashlib.sha256() if tmp else None
            if tmp:
                staged.append((tmp, target, path))
            handles.append(io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8"))
        yield tuple(handles)
        for fh in handles:
            fh.close()
        for tmp, target, path in staged:
            _named(path, os.replace, tmp, target)
    except BaseException:
        for fh in handles:
            with suppress(PipelineError):  # what _Output raises for a failed write or close
                fh.close()
        for tmp, _, _ in staged:
            with suppress(OSError):
                os.unlink(tmp)
        raise


def sha256_file(path: str) -> str | None:
    """The file's SHA-256, or None if it is not a regular file: a pipe or a
    device cannot be read back, and reading a pipe would block."""
    if not os.path.isfile(path):
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _provenance(output: str, sha256: str | None, inputs: list[dict], *, command: str,
                config: Mapping[str, object], seed: int | None, workers: int | None,
                counts: Mapping[str, int] | None) -> str:
    """The text of ``output``'s sidecar, given the digest of its bytes and the
    ``{"path", "sha256"}`` of each input. Deliberately timestamp-free: identical
    runs must produce identical sidecars, so audits can diff them directly."""
    document = {"tool": TOOL_NAME, "version": TOOL_VERSION, "command": command,
                "config": dict(config), "seed": seed, "workers": workers, "inputs": inputs,
                "output": {"path": output, "sha256": sha256}, "counts": dict(counts or {})}
    return json.dumps(document, indent=2) + "\n"


def write_provenance(output_path: str, *, command: str, config: Mapping[str, object],
                     seed: int | None, workers: int | None, inputs: Sequence[str],
                     counts: Mapping[str, int] | None = None) -> str:
    """Write ``<output>.provenance.json`` for a file already written, and
    return its path. A path that is not a regular file, such as a pipe,
    records ``"sha256": null``."""
    sidecar = output_path + SIDECAR_SUFFIX
    read = [{"path": path, "sha256": sha256_file(path)} for path in inputs]
    with replace_on_success(sidecar) as (fh,):
        fh.write(_provenance(output_path, sha256_file(output_path), read, command=command,
                             config=config, seed=seed, workers=workers, counts=counts))
    return sidecar


def check_paths_distinct(outputs: Iterable[str], inputs: Iterable[str]) -> None:
    """Raise :class:`UsageError` if two outputs, or an output and an input, are one file."""
    read = {os.path.realpath(path): path for path in inputs}
    written: dict[str, str] = {}
    for path in outputs:
        real = os.path.realpath(path)
        if real in read:
            raise UsageError(f"output {path} is also the input {read[real]}")
        if real in written:
            raise UsageError(f"outputs {written[real]} and {path} are the same file")
        written[real] = path


@contextmanager
def recorded(command: str, outputs: Sequence[str | None], inputs: Iterable[str | None], *,
             config: Mapping[str, object], seed: int | None = None, workers: int | None = None,
             digests: Sequence | None = None) -> Iterator[tuple[Counter, list[IO[str] | None]]]:
    """The one write protocol of every subcommand (see the module docstring): refuse an
    output or sidecar that is another output or an input (empty entries are not paths),
    yield a ``Counter`` for the run's counts and a handle per output (None for an empty
    entry), then stage each output's sidecar, all through one :func:`replace_on_success`.

    ``digests``, if given, holds a hash object (or None) per entry of ``inputs``: one that
    the run updates with every byte of that input, read from its start to its end. A
    regular file's sidecar entry then takes its digest from it instead of reading the
    file again."""
    entries = [(path, digest) for path, digest in zip(inputs, digests or repeat(None)) if path]
    written = [path for path in outputs if path]
    sidecars = [path + SIDECAR_SUFFIX for path in written]
    check_paths_distinct([*written, *sidecars], [path for path, _ in entries])
    counts: Counter = Counter()
    with replace_on_success(*written, *sidecars) as handles:
        by_path = dict(zip(written, handles))
        yield counts, [by_path.get(path) for path in outputs]
        if written:  # each input is hashed once, for every sidecar: by the run, or here
            read = [{"path": path, "sha256": digest.hexdigest() if digest and os.path.isfile(path)
                     else sha256_file(path)} for path, digest in entries]
        for path, fh, sidecar in zip(written, handles, handles[len(written):]):
            fh.flush()  # every byte has passed through the output's digest
            digest = fh.buffer.raw.sha256
            sidecar.write(_provenance(path, digest and digest.hexdigest(), read, command=command,
                                      config=config, seed=seed, workers=workers, counts=counts))
