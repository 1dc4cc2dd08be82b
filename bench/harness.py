"""Launching, checking and pass bookkeeping shared by the untraced and traced runs."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"
ALL_CPUS = frozenset(os.sched_getaffinity(0))
PINNED_CPU = frozenset({max(ALL_CPUS)})

sys.path.insert(0, str(SRC))  # the oracles and replicas use the program's own modules
from inputs import GENERATOR_DIGEST, ensure_inputs  # noqa: E402
from workloads import Invocation, Workload  # noqa: E402


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def cli_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("TREELAB_")}
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


# ---------------------------------------------------------------------------
# Machine speed
#
# The speed of a virtual CPU on a shared host drifts by itself, by up to a
# factor of two within seconds to minutes, and two virtual CPUs drift apart.
# So a CLI invocation that uses one CPU is pinned to one, and while it runs,
# a speed probe (``speedprobe.py``) pinned to the same CPU runs a fixed loop
# in small low-priority slices. The invocation's wall time, times the
# probe's rate over the reference rate, is its time at the reference speed.
# An invocation that uses several CPUs runs on all of them, with a probe on
# each, and is scaled by their mean rate.

REFERENCE_RATE = 575.0  # probe chunks per CPU second at the reference speed: the median on a 2-core Xeon VM


class SpeedProbes:
    """One speed probe process per CPU; closing the object ends them all."""

    def __init__(self, cpus: frozenset[int]) -> None:
        self.procs: dict[int, subprocess.Popen] = {}
        try:
            for cpu in sorted(cpus):
                self.procs[cpu] = subprocess.Popen(
                    [sys.executable, str(BENCH / "speedprobe.py"), str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                )
        except BaseException:
            self.close()
            raise

    def _send(self, cpus: frozenset[int], line: bytes) -> None:
        for cpu in sorted(cpus):
            self.procs[cpu].stdin.write(line)
            self.procs[cpu].stdin.flush()

    def start(self, cpus: frozenset[int]) -> None:
        self._send(cpus, b"go\n")

    def stop(self, cpus: frozenset[int]) -> float:
        """Mean rate of the probes on ``cpus`` since ``start``, in chunks per CPU second."""
        self._send(cpus, b"stop\n")
        rates = []
        for cpu in sorted(cpus):
            fields = self.procs[cpu].stdout.readline().split()
            if len(fields) != 2:
                raise RuntimeError(f"the speed probe on CPU {cpu} stopped answering")
            rates.append(int(fields[0]) / float(fields[1]))
        return statistics.fmean(rates)

    def close(self) -> None:
        for proc in self.procs.values():
            try:
                proc.stdin.close()
            except OSError:
                pass
        for proc in self.procs.values():
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def __enter__(self) -> SpeedProbes:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Launching


@dataclass
class Launch:
    name: str
    wall_s: float
    exit_code: int
    maxrss_mb: float
    speed: float | None = None  # probe rate over the reference rate, when probed
    ref_s: float | None = None  # wall time at the reference speed, when probed


def launch(inv: Invocation, cwd: Path, deadline: float) -> Launch:
    """Run one CLI invocation, timing it from spawn to reaping.

    ``ru_maxrss`` from ``wait4`` covers the child and every descendant it
    reaped, so the pool workers of ``--workers 2`` are included. The child
    inherits the CPUs it may run on: one, unless ``inv.parallel``.
    """
    saved = os.sched_getaffinity(0)
    with open(cwd / f"{inv.name}.stdout", "wb") as out, open(cwd / f"{inv.name}.stderr", "wb") as err:
        os.sched_setaffinity(0, cpus_of(inv))
        start = time.perf_counter()
        # A process group of its own, so that a kill also reaches the pool
        # workers; the same session, so that the scheduler weighs it against
        # the speed probes by their nice values (see speedprobe.py).
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "treelab.cli", *inv.argv],
                cwd=cwd, env=cli_env(), stdout=out, stderr=err, process_group=0,
            )
        finally:
            os.sched_setaffinity(0, saved)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], max(0.0, deadline - time.perf_counter()))
            finally:
                os.close(pidfd)
            if not ready:
                os.killpg(proc.pid, signal.SIGKILL)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(inv.name, wall, proc.returncode, usage.ru_maxrss / 1024.0)


def cpus_of(inv: Invocation) -> frozenset[int]:
    return ALL_CPUS if inv.parallel else PINNED_CPU


def prepare_dir(directory: Path, inputs_dir: str, workload: Workload) -> Path:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    for name in workload.inputs:
        shutil.copyfile(os.path.join(inputs_dir, name), directory / name)
    return directory


# ---------------------------------------------------------------------------
# Checking


def output_digests(directory: Path, plan: list[Invocation]) -> dict[str, str]:
    """Digest of every data output and every standard output; sidecars excluded."""
    digests = {}
    for inv in plan:
        for name in (*inv.outputs, f"{inv.name}.stdout"):
            path = directory / name
            digests[name] = sha256_file(path)[:16] if path.exists() else "missing"
    return digests


def sidecar_problems(directory: Path, inv: Invocation) -> list[str]:
    problems = []
    for name in inv.outputs:
        sidecar = directory / f"{name}.provenance.json"
        try:
            recorded = json.loads(sidecar.read_text(encoding="utf-8"))["output"]["sha256"]
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{sidecar.name}: unreadable ({exc})")
            continue
        if recorded != sha256_file(directory / name):
            problems.append(f"{sidecar.name}: output.sha256 does not match {name}")
    return problems


def invocation_problems(
    directory: Path, inv: Invocation, run: Launch, digests: dict[str, str],
    reference: dict[str, str], workload: Workload, facts: dict, seed: int,
) -> list[str]:
    if run.exit_code != 0:
        err = (directory / f"{inv.name}.stderr").read_text(encoding="utf-8", errors="replace")
        return [f"exit {run.exit_code}: {err.strip()[-300:]}"]
    problems = [
        f"{name}: digest {digests.get(name)} != reference {reference[name]}"
        for name in (*inv.outputs, f"{inv.name}.stdout")
        if digests.get(name) != reference.get(name, digests.get(name))
    ]
    problems += sidecar_problems(directory, inv)
    oracle = workload.oracles.get(inv.name)
    if oracle is not None and not problems:
        try:
            problems += oracle(directory, facts, seed)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"oracle failed: {exc!r}")
    return [f"{inv.name}: {p}" for p in problems]


def golden_reference(workload: str, size_name: str, seed: int) -> tuple[dict[str, str] | None, str]:
    """Committed digests for this (workload, size, seed), if recorded."""
    if not GOLDEN.exists():
        return None, "none recorded"
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if golden.get("generator") != GENERATOR_DIGEST:
        return None, "golden.json is for other generators; re-record it"
    entry = golden["digests"].get(f"{workload} {size_name} {seed}")
    return (entry, "golden") if entry else (None, "no golden for this seed")


# ---------------------------------------------------------------------------
# Passes


@dataclass
class Ledger:
    """Operations attempted and failed, with the first problems seen."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 20 - len(self.problems))])


@dataclass
class PassResult:
    wall_s: float
    launches: list[Launch]
    digests: dict[str, str]
    ref_s: float | None = None  # wall time at the reference speed, when probed


class Runner:
    """Runs passes of one workload and checks each invocation."""

    def __init__(self, workload: Workload, seed: int, size_name: str, deadline: float,
                 probes: SpeedProbes | None = None) -> None:
        self.workload = workload
        self.probes = probes
        self.seed = seed
        self.size = workload.sizes[size_name]
        self.inputs_dir, self.facts = ensure_inputs(str(WORK / "inputs"), workload.name, self.size, seed)
        self.plan = workload.plan(seed, self.size)
        self.items = workload.items(self.facts, self.size)
        self.deadline = deadline
        self.ledger = Ledger()
        self.reference, self.reference_kind = golden_reference(workload.name, size_name, seed)

    def run_pass(self, directory: Path) -> PassResult:
        prepare_dir(directory, self.inputs_dir, self.workload)
        launches = []
        for inv in self.plan:
            cpus = cpus_of(inv)
            if self.probes:
                self.probes.start(cpus)
            try:
                run = launch(inv, directory, self.deadline)
            finally:
                rate = self.probes.stop(cpus) if self.probes else None
            if rate is not None:
                run.speed = rate / REFERENCE_RATE
                run.ref_s = run.wall_s * run.speed
            launches.append(run)
            if run.exit_code != 0:
                break
        wall = sum(run.wall_s for run in launches)
        ref = sum(run.ref_s for run in launches) if self.probes else None
        digests = output_digests(directory, self.plan)
        if self.reference is None and len(launches) == len(self.plan):
            self.reference = digests
            self.reference_kind += "; first pass is the reference"
        for inv, run in zip(self.plan, launches):
            self.ledger.record(invocation_problems(
                directory, inv, run, digests, self.reference or {}, self.workload, self.facts, self.seed,
            ))
        return PassResult(wall, launches, digests, ref)

    def out_of_time(self, last_pass_s: float) -> bool:
        return time.perf_counter() + last_pass_s > self.deadline


# ---------------------------------------------------------------------------
# Machine


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = "not installed"
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = out.stdout.strip() or None
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "treelab").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_at_start": os.getloadavg(),
        "commit": commit,
        "src_sha256": src_digest.hexdigest(),
    }
