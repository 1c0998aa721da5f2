"""The one record stream behind the tracer and the lifecycle recorder.

Every trace record and lifecycle mark of a run is one row of an
append-only :class:`EventStream` of flat ``array`` columns, so a record
is a few machine words, never an object the garbage collector walks.
Only the args/detail dicts the call sites build go in the ``payloads``
side list.  :class:`~repro.obs.tracer.Tracer` and
:class:`~repro.obs.lifecycle.LifecycleRecorder` are the writers; their
``records`` and ``lifecycles`` views rebuild the row objects on read.
"""

from __future__ import annotations

import contextlib
from array import array
from typing import Dict, List, Optional

#: the ``kind`` column; a COUNTER sample was an ``int``, a REAL_COUNTER
#: one a ``float``
BEGIN, END, INSTANT, COUNTER, REAL_COUNTER, MARK = range(6)

#: the category of every lifecycle mark (also its Chrome ``cat``)
LIFECYCLE_CATEGORY = "lifecycle"


class EventStream:
    """Append-only columnar records in emission order."""

    def __init__(self) -> None:
        self.time_ps = array("q")
        self.kind = array("b")
        #: interned string ids (a mark's name is its stage)
        self.category = array("i")
        self.name = array("i")
        #: the owning lifecycle's id, -1 for a component record
        self.mid = array("q")
        #: a counter sample's value, else the row's ``payloads`` index
        #: (-1: none)
        self.arg = array("d")
        self.payloads: List[Dict[str, object]] = []
        #: string -> id; insertion order is id order, so ``list(ids)``
        #: maps an id back to its string
        self.ids: Dict[str, int] = {}

    def record(
        self,
        time_ps: int,
        kind: int,
        category: str,
        name: str,
        mid: int,
        payload: Optional[Dict[str, object]],
    ) -> None:
        """Append one row; ``payload`` goes to the side list."""
        ids = self.ids
        self.time_ps.append(time_ps)
        self.kind.append(kind)
        self.category.append(ids.setdefault(category, len(ids)))
        self.name.append(ids.setdefault(name, len(ids)))
        self.mid.append(mid)
        if payload is None:
            self.arg.append(-1)
        else:
            self.arg.append(len(self.payloads))
            self.payloads.append(payload)

    def sample(self, time_ps: int, category: str, name: str, value) -> None:
        """Append one counter sample; the number lands in ``arg``."""
        ids = self.ids
        self.time_ps.append(time_ps)
        self.kind.append(COUNTER if isinstance(value, int) else REAL_COUNTER)
        self.category.append(ids.setdefault(category, len(ids)))
        self.name.append(ids.setdefault(name, len(ids)))
        self.mid.append(-1)
        self.arg.append(value)

    def __len__(self) -> int:
        return len(self.time_ps)


class NullSink:
    """The disabled tracer and lifecycle recorder: every emit is a no-op."""

    enabled = False
    records = lifecycles = ()

    def _ignore(self, *args, **kwargs) -> None:
        return None

    attach_clock = begin = end = instant = counter = mark_request = _ignore
    annotate_request = label_request = complete_request = bind_uid = _ignore
    alias_uid = mark_uid = annotate_uid = mark_uid_clamped = _ignore
    watch_completion = search_note = _ignore

    def span(self, *args, **kwargs):
        return contextlib.nullcontext(self)

    def pop_search_notes(self) -> Dict[str, object]:
        return {}

    def __len__(self) -> int:
        return 0


NULL_SINK = NullSink()
