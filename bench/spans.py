"""Span tracing for the benchmark's traced run.

The tracer wraps the public functions of the qteleport layers by
monkeypatching the module namespaces (and the dataclass ``__post_init__``
hooks of the state types), so the library's source is never edited. Each
wrapped call records a span ``[name, start, end, parent]`` in memory. After
every benchmark op the spans are folded into per-name totals; the spans of
the first ops are kept whole and written out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from types import ModuleType
from typing import Any, Callable

LAYERS = ("linalg", "states", "protocol", "serialize", "verify", "cli")

# Scalar formatters run once per matrix entry: a wrapper would cost more than
# they do, so their time stays in the self time of the serialize span that
# called them.
UNWRAPPED = frozenset({"serialize.round_sig", "serialize.complex_pair"})
# Private functions wrapped because each is a stage of its own.
PRIVATE_WRAPPED = frozenset({"protocol._marginals"})
STATE_CLASSES = ("DensityMatrix", "QubitState", "Ket")

# Span name -> pipeline stage. The stage names are those a per-stage timing
# line of the library would use: initial state, channel, branches,
# marginals, entropy, serialize.
STAGE_NAMES = ("initial_state", "channel", "branches", "marginals", "entropy", "serialize")
_STAGE_OF = {
    "protocol.build_initial_state": "initial_state",
    "protocol.teleport_channel": "channel",
    "protocol.measurement_branches": "branches",
    "protocol._marginals": "marginals",
    "linalg.partial_trace": "marginals",
    "states.von_neumann_entropy": "entropy",
}

ROOT_SPAN = "op"
KEPT_SPAN_LIMIT = 20_000


def stage_of(name: str) -> str | None:
    if name.startswith("serialize."):
        return "serialize"
    return _STAGE_OF.get(name)


def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    ``spans`` holds ``[name, start, end, parent_index]`` records; the parent
    index is None for a root. Child intervals are clipped to the parent and
    merged before they are subtracted, so overlapping children count once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


class Tracer:
    """Records spans around the library's public calls while installed."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.kept: list[list[Any]] = []
        self.ops = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.stage_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[Callable[[], None]] = []
        self._validation_error: type[BaseException] = ValueError

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = _RESULT_HOOKS.get(name)
        validation_error = self._validation_error
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            record = [name, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except validation_error as exc:
                # Count each exception once, where it is first seen.
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True  # type: ignore[attr-defined]
                    counters["validation_errors"] += 1
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, result)
            return result

        return traced

    def op(self, fn: Callable[[], Any]) -> Any:
        """Run one benchmark op under a root span; ``fold`` must follow."""
        root = [ROOT_SPAN, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(root)
        root[1] = time.perf_counter()
        try:
            return fn()
        finally:
            root[2] = time.perf_counter()
            self._stack.pop()

    def fold(self) -> None:
        """Add the finished op's spans to the totals and clear them."""
        spans = self.spans
        own = self_times(spans)
        enclosing: list[str | None] = []
        for (name, start, end, parent), own_s in zip(spans, own):
            self.calls[name] += 1
            self.self_s[name] += own_s
            self.total_s[name] += end - start
            outer = None
            if parent is not None:
                outer = stage_of(spans[parent][0]) or enclosing[parent]
            stage = stage_of(name)
            # A stage's time is that of its outermost span, so nested spans
            # of the same stage are not counted twice.
            if stage is not None and stage != outer:
                self.stage_s[stage] += end - start
            enclosing.append(outer)
        room = KEPT_SPAN_LIMIT - len(self.kept)
        if room > 0:
            self.kept.extend([self.ops, *s] for s in spans[:room])
        self.ops += 1
        spans.clear()

    # -- patching --------------------------------------------------------

    def install(self, package: ModuleType) -> None:
        """Wrap the public functions of every layer of ``package``."""
        layers = {layer: sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS}
        self._validation_error = layers["states"].StateValidationError
        wrappers: dict[int, tuple[Any, Any]] = {}
        for layer, mod in layers.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__ or name in UNWRAPPED:
                    continue
                if attr.startswith("_") and name not in PRIVATE_WRAPPED:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(name, obj))

        namespaces = [
            m for n, m in sys.modules.items()
            if n == package.__name__ or n.startswith(package.__name__ + ".")
        ]
        for ns in namespaces:
            table = vars(ns)
            for attr, obj in list(table.items()):
                if isinstance(obj, dict):
                    # e.g. the CLI's command-name -> handler table
                    for key, value in list(obj.items()):
                        self._patch_entry(obj, key, value, wrappers)
                else:
                    self._patch_entry(table, attr, obj, wrappers)

        for cls_name in STATE_CLASSES:
            cls = getattr(layers["states"], cls_name)
            original = cls.__dict__["__post_init__"]
            cls.__post_init__ = self._wrap(f"states.{cls_name}", original)
            self._restore.append(lambda cls=cls, original=original: setattr(cls, "__post_init__", original))

    def _patch_entry(self, table: dict, key: Any, value: Any, wrappers: dict[int, tuple[Any, Any]]) -> None:
        entry = wrappers.get(id(value))
        if entry is None:
            return
        table[key] = entry[1]
        self._restore.append(lambda: table.__setitem__(key, value))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()


def _count_dumped_bytes(counters: dict[str, float], text: str) -> None:
    counters["bytes_out"] += len(text.encode())


def _count_built_branches(counters: dict[str, float], branches: Any) -> None:
    counters["branch_states_built"] += sum(state is not None for _, state in branches)


def _count_used_branch(counters: dict[str, float], _: Any) -> None:
    counters["branch_states_used"] += 1


_RESULT_HOOKS: dict[str, Callable[[dict[str, float], Any], None]] = {
    "serialize.dumps": _count_dumped_bytes,
    "protocol.measurement_branches": _count_built_branches,
    # single_shot hands exactly one corrected branch state on to its caller.
    "protocol.single_shot": _count_used_branch,
}
