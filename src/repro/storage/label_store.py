"""Label store.

Persists every ``AddLabel`` call and answers the queries the Active Learning
Manager needs: per-class counts (for the skew test and the S_max diversity
metric), the full label list (for training), and the labeled vids (so already
labeled videos are not sampled again).  Labels are kept as an append-only
list; a label's id is its position in the list.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from ..types import ClipSpec, Label, check_field

__all__ = ["LabelStore"]


class LabelStore:
    """Append-only store of user-provided labels."""

    TABLE_NAME = "labels"
    #: Column types in snapshot order; the first column is the primary key.
    SCHEMA = {
        "label_id": "int",
        "vid": "int",
        "start": "float",
        "end": "float",
        "label": "str",
    }

    def __init__(self) -> None:
        self._labels: list[Label] = []
        #: Optional write-ahead sink (``repro.storage.durability``): every
        #: stored label is journaled, keyed by the post-write revision.
        self.journal_sink = None

    def __len__(self) -> int:
        return len(self._labels)

    @property
    def revision(self) -> int:
        """Monotonically increasing write counter (one tick per stored label).

        Because the store is append-only, a consumer that cached derived state
        at revision ``r`` can catch up by processing only ``since(r)``; the
        Model Manager's design-matrix cache relies on this.
        """
        return len(self._labels)

    # ------------------------------------------------------------------ writes
    def add(self, label: Label) -> int:
        """Store one label; returns its id.

        Raises:
            SchemaError: if ``vid`` is not an int, ``start``/``end`` are not
                real, or ``label`` is not a string; nothing is stored or
                journaled then.
        """
        for name in ("vid", "start", "end", "label"):
            check_field(name, getattr(label, name), self.SCHEMA[name])
        label_id = len(self._labels)
        stored = Label(
            vid=int(label.vid),
            start=float(label.start),
            end=float(label.end),
            label=str(label.label),
        )
        self._labels.append(stored)
        if self.journal_sink is not None:
            self.journal_sink(
                {
                    "type": "label",
                    "label_id": label_id,
                    "vid": stored.vid,
                    "start": stored.start,
                    "end": stored.end,
                    "label": stored.label,
                    "revision": self.revision,
                }
            )
        return label_id

    def add_many(self, labels: Iterable[Label]) -> list[int]:
        """Store several labels; returns their ids."""
        return [self.add(label) for label in labels]

    def restore(self, labels: list[Label]) -> None:
        """Replace the contents in place (checkpoint recovery).

        Managers hold references to this store, so recovery refills it rather
        than swapping in a new one.  The journal sink is not invoked.
        """
        self._labels = list(labels)

    # ------------------------------------------------------------------- reads
    def all(self) -> list[Label]:
        """Return every stored label in insertion order."""
        return list(self._labels)

    def since(self, revision: int) -> list[Label]:
        """Labels appended after ``revision``, in insertion order.

        ``since(self.revision)`` is always empty; ``since(0)`` equals
        :meth:`all`.  Revisions tick once per stored label, so the labels
        newer than revision ``r`` are exactly those at positions ``r``
        onwards.
        """
        return self._labels[max(0, revision):]

    def labeled_clips(self) -> list[ClipSpec]:
        """Return the clip of every stored label (possibly with duplicates)."""
        return [label.clip for label in self._labels]

    def labeled_vids(self) -> list[int]:
        """Return the distinct vids that carry at least one label, first-seen order."""
        return list(dict.fromkeys(label.vid for label in self._labels))

    def class_counts(self) -> dict[str, int]:
        """Return the number of labels per class, in first-seen order."""
        return dict(Counter(label.label for label in self._labels))

    def diversity_smax(self) -> float:
        """Fraction of labels belonging to the most-seen class (paper's S_max).

        Returns 0.0 when no labels have been collected.
        """
        counts = self.class_counts()
        total = sum(counts.values())
        if total == 0:
            return 0.0
        return max(counts.values()) / total
