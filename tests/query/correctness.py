"""Dual-backend agreement harness for the relational temporal index.

The linear scan is the reference: on a seeded randomized catalog, every
query that ``MediaDatabase(index=True)`` can serve from its
:class:`~repro.query.index.TemporalIndex` must return what the linear
backend returns — same names, same order — also after
``set_attribute`` mutations. ``test_index.py`` runs the harness at its
default sizes over fixed seeds; ``tests/property`` runs it on smaller
catalogs over hypothesis-drawn seeds.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.composition import MultimediaObject
from repro.core.media_object import StillMediaObject
from repro.core.media_types import media_type_registry
from repro.core.rational import Rational
from repro.edit import MediaEditor
from repro.media import frames
from repro.media.objects import video_object
from repro.query.database import MediaDatabase


def demonstrate_correctness(seed: int = 0, objects: int = 96,
                            components: int = 64, windows: int = 24,
                            mutations: int = 16) -> dict[str, Any]:
    """Prove the indexed and linear backends answer identically.

    Builds a seeded randomized catalog (attribute-rich objects, a
    derivation chain, a nested composition with instants, duplicate
    starts and contained intervals), then runs every dual-backend query
    through both paths and insists on *byte-identical* result sets —
    same names, same order — including after ``set_attribute``
    mutations. Returns a report dict; ``report["ok"]`` is the gate.
    """
    rng = np.random.default_rng(seed)

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    db = MediaDatabase(f"correctness-{seed}", index=True)
    genres = ("drama", "news", "sport", "music", "archive")
    langs = ("en", "de", "fr", None)

    for i in range(objects):
        obj = _cheap_still(f"obj-{i:04d}")
        db.add_object(
            obj,
            genre=pick(genres),
            year=int(rng.integers(1990, 2000)),
            rating=pick((1, 2, 3, True, 4.5)),
            language=pick(langs),
        )

    # Derived video objects beside the stills, so the selections span
    # kinds and derived rows.
    _derivation_chain(db, length=6)

    mm = MultimediaObject("random-timeline")
    shared = _cheap_still("shared-leaf")
    nested = MultimediaObject("nested")
    nested.add_temporal(shared, at=0, duration=Rational(1, 2), label="inner-a")
    nested.add_temporal(shared, at=Rational(1, 4), duration=0,
                        label="inner-instant")
    mm.add_temporal(nested, at=1, label="nested")
    for i in range(components):
        start = Rational(int(rng.integers(0, 41)), pick((1, 2, 3, 4)))
        duration = Rational(int(rng.integers(0, 13)), pick((1, 2, 3)))
        mm.add_temporal(shared, at=start, duration=duration,
                        label=f"c{i:03d}")
    db.add_multimedia(mm)

    report: dict[str, Any] = {"seed": seed, "checks": 0, "disagreements": []}

    def compare(what: str, indexed, linear) -> None:
        report["checks"] += 1
        if indexed != linear:
            report["disagreements"].append(
                {"query": what, "indexed": indexed, "linear": linear}
            )

    def sweep(round_label: str) -> None:
        for genre in genres:
            compare(
                f"{round_label} objects(genre={genre})",
                [o.name for o in db.objects(backend="index", genre=genre)],
                [o.name for o in db.objects(backend="linear", genre=genre)],
            )
        for year in (1990, 1994, 1999):
            compare(
                f"{round_label} objects(year={year}, rating=1)",
                [o.name for o in db.objects(backend="index", year=year,
                                            rating=1)],
                [o.name for o in db.objects(backend="linear", year=year,
                                            rating=1)],
            )
        compare(
            f"{round_label} objects(language=None)",
            [o.name for o in db.objects(backend="index", language=None)],
            [o.name for o in db.objects(backend="linear", language=None)],
        )

    sweep("initial")

    labels = [label for label, _ in mm.timeline()]
    sampled = rng.choice(len(labels), size=min(12, len(labels)),
                         replace=False)
    for label in (labels[int(i)] for i in sampled):
        compare(
            f"overlapping({label})",
            db.components_overlapping("random-timeline", label,
                                      backend="index"),
            db.components_overlapping("random-timeline", label,
                                      backend="linear"),
        )
    for _ in range(windows):
        a = Rational(int(rng.integers(0, 51)), pick((1, 2, 4)))
        b = a + Rational(int(rng.integers(0, 11)), pick((1, 2)))
        compare(
            f"during([{a}, {b}))",
            db.components_during("random-timeline", a, b, backend="index"),
            db.components_during("random-timeline", a, b, backend="linear"),
        )
    compare(
        "occurrences_of(shared-leaf)",
        db.occurrences_of("shared-leaf", backend="index"),
        db.occurrences_of("shared-leaf", backend="linear"),
    )
    compare(
        "component_descendants(root)",
        db.component_descendants("random-timeline", backend="index"),
        db.component_descendants("random-timeline", backend="linear"),
    )
    compare(
        "component_descendants(nested)",
        db.component_descendants("random-timeline", "nested",
                                 backend="index"),
        db.component_descendants("random-timeline", "nested",
                                 backend="linear"),
    )

    # Mutations must write through: mutate, then re-compare.
    for i in range(mutations):
        name = f"obj-{int(rng.integers(objects)):04d}"
        db.set_attribute(name, "genre", pick(genres))
        db.set_attribute(name, "restored", bool(i % 2))
    sweep("post-mutation")
    compare(
        "objects(restored=True)",
        [o.name for o in db.objects(backend="index", restored=True)],
        [o.name for o in db.objects(backend="linear", restored=True)],
    )

    report["ok"] = not report["disagreements"]
    return report


def _cheap_still(name: str) -> StillMediaObject:
    """A minimal cataloguable still object (shared type/descriptor)."""
    media_type = media_type_registry.get("text")
    descriptor = media_type.make_media_descriptor(charset="utf-8")
    return StillMediaObject(media_type, descriptor, name, name=name)


def _derivation_chain(db: MediaDatabase, length: int = 6) -> None:
    """Catalog a cut-of-a-cut derivation chain of ``length`` cuts."""
    editor = MediaEditor()
    current = video_object(frames.scene(8, 8, 12, "pan"), "chain-root")
    db.add_object(current, genre="archive")
    for i in range(length):
        current = editor.cut(current, 0, max(2, 12 - i),
                             name=f"chain-cut-{i}")
        db.add_object(current, genre="archive")
