"""Span tracing at the lvecdlp layer boundaries, installed from outside the package.

Each traced boundary is a module attribute that the pipeline calls through
(for example ``lvecdlp.attack.left_kernel``).  ``Tracer.install`` rebinds
those attributes to wrappers that record one span per call, and
``Tracer.uninstall`` puts the originals back, so untraced work runs the
unmodified code.  Spans stay in memory as tuples and are written out once, at
the end of the run.

Not traced: ``field`` runs inside every ``Curve.add`` and wrapping it would
distort the timing, so its cost lands in the ``curve`` spans;
``verification`` only supplies the fixture, whose cost lands in set-up.
"""

from __future__ import annotations

import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

ROOT_PARENT = -1


def _decoded(result) -> bool:
    return result[0] is not None


def _exit_ok(result) -> bool:
    return result == 0


def boundaries(mods) -> list[tuple[object, str, str, Optional[Callable[[object], bool]]]]:
    """(owner, attribute, span name, success test) for every traced call site.

    A span is ``ok`` when the call returned something other than None and
    passed the success test, if there is one.  Layer names match the package
    modules.  The attack layer is entered through ``run_attack`` by the solve
    workloads and through the ``execute_iteration`` that ``cli`` imported by
    the experiment workload.
    """
    attack, cli, curve, dlp, problem_l = mods.attack, mods.cli, mods.curve, mods.dlp, mods.problem_l
    return [
        (cli, "main", "cli.main", _exit_ok),
        (attack, "AttackConfig", "attack.config", None),
        (cli, "AttackConfig", "attack.config", None),
        (attack, "run_attack", "attack.run_attack", None),
        (cli, "execute_iteration", "attack.execute_iteration", None),
        (attack, "decode_solution", "attack.decode", _decoded),
        (curve.Curve, "scalar_mul", "curve.scalar_mul", None),
        (attack, "evaluate_row", "veronese.evaluate_row", None),
        (attack, "left_kernel", "linalg.left_kernel", None),
        (problem_l, "eliminate_block", "linalg.eliminate_block", None),
        (problem_l, "row_rank", "linalg.row_rank", None),
        (problem_l, "right_kernel_rows", "linalg.right_kernel_rows", None),
        (attack, "solve_alg2", "problem_l.alg2", None),
        (attack, "solve_exhaustive", "problem_l.exhaustive", None),
        (dlp, "solve_bsgs", "dlp.bsgs", None),
    ]


class Tracer:
    """Records (name, parent index, start, end, ok) for each wrapped call.

    A span's parent is the innermost traced call open when it started, so
    self time is its duration minus the durations of its direct children.
    """

    def __init__(self, sites):
        self.sites = sites
        self.spans: list[Optional[tuple[str, int, float, float, bool]]] = []
        self._stack = [ROOT_PARENT]
        self._originals: list[tuple[object, str, object]] = []
        self.missing = sorted({name for owner, attr, name, _ in sites if not hasattr(owner, attr)})

    def _wrap(self, name: str, fn, ok: Optional[Callable[[object], bool]]):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, parent, start, end, result is not None and (ok is None or ok(result)))

        return traced

    def install(self) -> None:
        """Rebind every boundary the package still has; ``missing`` lists the others."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, ok in self.sites:
            if not hasattr(owner, attr):
                continue
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, ok))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def write(self, path: Path) -> None:
        """One CSV line per span: index, parent, name, start and end in µs, ok."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][2] if self.spans else 0.0
        with path.open("w") as out:
            out.write("index,parent,name,start_us,end_us,ok\n")
            for index, (name, parent, start, end, ok) in enumerate(self.spans):
                out.write(
                    f"{index},{parent},{name},{(start - origin) * 1e6:.3f},{(end - origin) * 1e6:.3f},{int(ok)}\n"
                )


class SpanStats:
    """Durations, self times and parent links of a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        child_time = [0.0] * len(spans)
        for name, parent, start, end, ok in spans:
            if parent != ROOT_PARENT:
                child_time[parent] += end - start
        self.self_time = [end - start - child_time[i] for i, (_, _, start, end, _) in enumerate(spans)]

    def of(self, name: str) -> list[int]:
        return [i for i, span in enumerate(self.spans) if span[0] == name]

    def of_layer(self, layer: str) -> list[int]:
        prefix = layer + "."
        return [i for i, span in enumerate(self.spans) if span[0].startswith(prefix)]

    def duration(self, index: int) -> float:
        return self.spans[index][3] - self.spans[index][2]

    def total(self, indices) -> float:
        return sum(self.duration(i) for i in indices)

    def total_self(self, indices) -> float:
        return sum(self.self_time[i] for i in indices)

    def median_us(self, indices) -> float:
        if not indices:
            return 0.0
        return statistics.median(self.duration(i) for i in indices) * 1e6

    def ok_count(self, indices) -> int:
        return sum(1 for i in indices if self.spans[i][4])

    def root_name(self, index: int) -> str:
        while self.spans[index][1] != ROOT_PARENT:
            index = self.spans[index][1]
        return self.spans[index][0]

    def children_by_name(self, parents) -> Counter:
        wanted = set(parents)
        return Counter(span[0] for span in self.spans if span[1] in wanted)
