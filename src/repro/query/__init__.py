"""Media database catalog and query API.

§1.2 motivates structure with queries: "consider a digital movie with
audio tracks in different languages. If the movie is represented
structurally ... it is possible to issue queries which select a specific
sound track, or select a specific duration, or perhaps retrieve frames at
a specific visual fidelity."

* :mod:`repro.query.database` — the catalog: BLOBs, interpretations,
  media objects with domain attributes, multimedia objects, provenance;
* :mod:`repro.query.query` — those three §1.2 queries over the catalog;
* :mod:`repro.query.temporal` — temporal predicates over compositions,
  by linear scan of a timeline;
* :mod:`repro.query.index` — the relational temporal-index accelerator
  (pre/post/level composition axes, exact-rational timeline columns,
  window-function rollups) behind ``MediaDatabase(index=True)``, which
  routes each query to it or to the linear scan. Lineage queries always
  walk the catalog's in-memory provenance graph.
"""

from repro.query.database import MediaDatabase
from repro.query.index import TemporalIndex, encode_attribute
from repro.query.query import (
    frames_at_fidelity,
    select_duration,
    select_track,
)
from repro.query.temporal import (
    components_during,
    components_overlapping,
)

__all__ = [
    "MediaDatabase",
    "TemporalIndex",
    "encode_attribute",
    "frames_at_fidelity",
    "select_duration",
    "select_track",
    "components_during",
    "components_overlapping",
]
