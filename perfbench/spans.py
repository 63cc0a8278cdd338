"""In-memory spans and the attribute patches that record them.

A :class:`Tracer` keeps one span per wrapped call: its name, start, end and
the span open around it.  Spans stay in memory until the benchmark reads
them; :meth:`Tracer.summary` folds them into per-name totals, self times
(span time minus the time its direct children cover) and call counts.
:class:`Patches` swaps attributes of classes and modules for wrappers and
puts the originals back, so the program's own files are never edited.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

_MISSING = object()


@dataclass
class LayerTotals:
    seconds: float = 0.0
    self_seconds: float = 0.0
    calls: int = 0


@dataclass
class Tracer:
    #: ``[name, start, end, parent index]`` per span, in start order.
    spans: List[list] = field(default_factory=list)
    _open: List[int] = field(default_factory=list)

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``name``.

        A call re-entering a span of the same name is not split again, so a
        layer never counts its own recursion twice.
        """
        if self._open and self.spans[self._open[-1]][0] == name:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        span = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(span)
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def summary(self) -> Dict[str, LayerTotals]:
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals: Dict[str, LayerTotals] = defaultdict(LayerTotals)
        for (name, start, end, _), covered in zip(self.spans, children):
            entry = totals[name]
            entry.seconds += end - start
            entry.self_seconds += end - start - covered
            entry.calls += 1
        return dict(totals)


class Patches:
    """Replacements that :meth:`restore` undoes in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def replace(self, owner: Any, name: str, value: Any) -> None:
        # Look in the owner's own namespace: an inherited method must be
        # deleted again on restore, not copied down onto the subclass.
        old = vars(owner).get(name, _MISSING) if isinstance(owner, type) else getattr(owner, name)
        if old is _MISSING:
            self._undo.append(lambda: delattr(owner, name))
        else:
            self._undo.append(lambda: setattr(owner, name, old))
        setattr(owner, name, value)

    def register(self, registry: Any, name: str, factory: Callable) -> None:
        """Swap the factory registered under ``name`` in a component registry."""
        old, doc = registry.get(name), registry.doc(name)
        self._undo.append(lambda: registry.register(name, old, overwrite=True, doc=doc))
        registry.register(name, factory, overwrite=True, doc=doc)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()
