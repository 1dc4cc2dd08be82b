"""Speed probe: measures how fast one CPU runs while a CLI invocation shares it.

    python3 bench/speedprobe.py CPU

The probe pins itself to CPU, lowers its own priority to nice 10 (about a
tenth of a CPU next to a busy process of nice 0 in the same session: the
scheduler shares the CPU between sessions first) and waits on standard
input. On a ``go`` line it repeats a fixed chunk of interpreter work until
the next line arrives, then writes ``<chunks> <cpu seconds>`` for that
stretch. It exits at the end of its input. Because it runs in small slices
all through the invocation, on the invocation's own CPU, it sees the same
slow and fast phases of the machine; see ``harness.SpeedProbes``.
"""

from __future__ import annotations

import os
import select
import sys
import time

NICE = 10
TREE = "(S (NP (DT the) (JJ old) (NN cat)) (VP (VBD sat) (PP (IN on) (NP (DT the) (NN mat)))) (. .))"
CHUNK_TREES = 150  # about 2 ms of work


def chunk() -> int:
    """Bracket parsing into small objects and a walk over them, like the CLI's own work."""
    count = 0
    for _ in range(CHUNK_TREES):
        stack: list[list] = [[]]
        for token in TREE.replace("(", " ( ").replace(")", " ) ").split():
            if token == "(":
                node: list = []
                stack[-1].append(node)
                stack.append(node)
            elif token == ")":
                stack.pop()
            else:
                stack[-1].append(token)
        todo = list(stack[0])
        seen: dict[str, int] = {}
        while todo:
            item = todo.pop()
            if isinstance(item, list):
                todo.extend(item)
            else:
                seen[item] = seen.get(item, 0) + 1
        count += len(seen)
    return count


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    os.nice(NICE)
    stdin = sys.stdin.fileno()
    pending = b""
    while True:
        while b"\n" not in pending:
            data = os.read(stdin, 64)
            if not data:
                return 0
            pending += data
        _, pending = pending.split(b"\n", 1)  # go
        chunks = 0
        start = time.thread_time()
        while b"\n" not in pending:
            chunk()
            chunks += 1
            if select.select([stdin], [], [], 0)[0]:
                data = os.read(stdin, 64)
                if not data:
                    return 0
                pending += data
        cpu = time.thread_time() - start
        _, pending = pending.split(b"\n", 1)  # stop
        sys.stdout.write(f"{chunks} {cpu!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    raise SystemExit(main())
