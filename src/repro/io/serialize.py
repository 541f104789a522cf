"""JSON serialization of configurations and witnesses.

Formats are deliberately plain: a configuration file is a JSON object with
the torus kind/size, the target color, and the row-major color list, so
artifacts are diffable and readable in a code review.

Witness records — the minimal dynamo configurations discovered by the
census/search drivers — serialize through :class:`WitnessRecord` /
:func:`witness_to_dict` / :func:`witness_from_dict`.  The on-disk schema
is versioned (``schema`` field, currently :data:`WITNESS_SCHEMA`);
:func:`witness_from_dict` upgrades legacy ``save_configuration``-style
payloads in place and raises :class:`WitnessFormatError` on anything it
cannot make sense of, so the append-only store in
:mod:`repro.io.witnessdb` can skip corrupted lines without aborting a
load.

Schema guarantees
-----------------
* every value is a plain JSON type (no numpy scalars leak to disk);
* ``witness_from_dict(witness_to_dict(r))`` is the identity on every
  field, including the row-major ``configuration`` tuple (bitwise
  round-trip — covered by ``tests/test_io_witnessdb.py``);
* records from a *newer* schema than this build understands are rejected
  (refuse-don't-guess), records from older builds are upgraded.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Tuple, Union

import numpy as np

from ..topology.base import GridTopology
from ..topology.tori import make_torus

__all__ = [
    "save_configuration",
    "load_configuration",
    "WITNESS_SCHEMA",
    "WitnessFormatError",
    "WitnessRecord",
    "witness_id",
    "witness_to_dict",
    "witness_from_dict",
]

PathLike = Union[str, Path]

#: current on-disk schema version of witness records; bump when the field
#: set changes and teach :func:`witness_from_dict` to upgrade the old one
WITNESS_SCHEMA = 1

_KIND_BY_CLASS = {
    "ToroidalMesh": "mesh",
    "TorusCordalis": "cordalis",
    "TorusSerpentinus": "serpentinus",
}


def _kind_of(topo: GridTopology) -> str:
    try:
        return _KIND_BY_CLASS[type(topo).__name__]
    except KeyError:
        raise ValueError(
            f"serialization supports the three torus kinds, not {type(topo).__name__}"
        ) from None


def save_configuration(
    path: PathLike,
    topo: GridTopology,
    colors: np.ndarray,
    k: Optional[int] = None,
    **metadata: Any,
) -> None:
    """Write a coloring (and optional metadata) as JSON.

    Parameters
    ----------
    path:
        Destination file; overwritten if present.
    topo:
        One of the three registry tori (:class:`ValueError` otherwise —
        the file stores only ``(kind, m, n)``, so arbitrary topologies
        cannot round-trip).
    colors:
        Row-major color vector of length ``topo.num_vertices``.
    k:
        Target color to store alongside the coloring (``None`` when the
        configuration has no distinguished color).
    **metadata:
        Extra JSON-serializable fields stored under ``"metadata"``.
    """
    payload = {
        "kind": _kind_of(topo),
        "m": topo.m,
        "n": topo.n,
        "k": None if k is None else int(k),
        "colors": np.asarray(colors, dtype=int).tolist(),
        "metadata": metadata,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


_INT32_MAX = int(np.iinfo(np.int32).max)


def _is_count(value: Any) -> bool:
    """A non-negative JSON integer that fits the engine's ``int32``
    (``bool`` is an ``int`` subclass, not one)."""
    return type(value) is int and 0 <= value <= _INT32_MAX


def _are_counts(values: Any) -> bool:
    """A JSON array of :func:`_is_count` values, checked at C speed (the
    witness store runs every record's configuration through it)."""
    return (
        isinstance(values, (list, tuple))
        and set(map(type, values)) <= {int}
        and (not values or (min(values) >= 0 and max(values) <= _INT32_MAX))
    )


def load_configuration(path: PathLike) -> Tuple[GridTopology, np.ndarray, Optional[int]]:
    """Read a configuration back.

    Returns
    -------
    ``(topology, colors, k)`` — the rebuilt torus, the ``int32`` color
    vector, and the stored target color (``None`` when absent).  Raises
    :class:`ValueError` on a file that is not a configuration: invalid
    JSON, a missing field, a size, color or target color that is not a
    non-negative integer (``1.9`` is refused, not truncated to 1), or a
    color list whose length disagrees with the stored torus size.
    """
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError("a configuration file holds one JSON object")
    missing = [f for f in ("kind", "m", "n", "colors") if f not in payload]
    if missing:
        raise ValueError(f"configuration is missing fields {missing}")
    kind, m, n, colors = (payload[f] for f in ("kind", "m", "n", "colors"))
    if not isinstance(kind, str):
        raise ValueError(f"torus kind must be a string, got {kind!r}")
    if not (_is_count(m) and _is_count(n)):
        raise ValueError(f"torus size must be integers, got {m!r}x{n!r}")
    topo = make_torus(kind, m, n)
    if not isinstance(colors, list) or not _are_counts(colors):
        raise ValueError("colors must be a list of non-negative integers")
    if len(colors) != topo.num_vertices:
        raise ValueError(
            f"configuration has {len(colors)} colors for a "
            f"{topo.m}x{topo.n} torus"
        )
    k = payload.get("k")
    if k is not None and not _is_count(k):
        raise ValueError(f"target color must be a non-negative integer, got {k!r}")
    return topo, np.asarray(colors, dtype=np.int32), k


# ----------------------------------------------------------------------
# witness records
# ----------------------------------------------------------------------
class WitnessFormatError(ValueError):
    """A serialized witness record is corrupted or from an unknown schema."""


def witness_id(
    rule: str,
    kind: str,
    m: int,
    n: int,
    colors: int,
    k: int,
    configuration: Iterable[int],
) -> str:
    """Deterministic 12-hex-digit identity of a witness.

    Hashes the *identity* fields only — the key ``(rule, kind, m, n,
    colors)``, the target color, and the exact configuration — never the
    provenance or verification status, so re-discovering the same witness
    through a different search maps to the same id and the append-only
    store can deduplicate/supersede by id.
    """
    identity = json.dumps(
        [str(rule), str(kind), int(m), int(n), int(colors), int(k),
         [int(c) for c in configuration]],
        separators=(",", ":"),
    )
    return hashlib.sha1(identity.encode()).hexdigest()[:12]


@dataclass
class WitnessRecord:
    """One witness: a dynamo configuration plus provenance.

    The in-memory row of ``results/witnesses.jsonl``.  Identity (the
    store key) is ``(rule, kind, m, n, colors)`` plus the configuration;
    everything else is provenance or status.
    """

    #: recoloring rule, by registry name (``"smp"``, ``"majority"``, ...)
    rule: str
    #: torus kind: ``"mesh"`` / ``"cordalis"`` / ``"serpentinus"``
    kind: str
    m: int
    n: int
    #: palette size the witness was searched under
    colors: int
    #: target color of the dynamo
    k: int
    #: number of seed (color-``k``) vertices in the configuration
    seed_size: int
    #: the witness was monotone w.r.t. ``k`` when discovered
    monotone: bool
    #: row-major initial coloring, length ``m * n``
    configuration: Tuple[int, ...]
    #: how it was found: ``"exhaustive"`` / ``"random"`` / ``"diagonal"`` /
    #: ``"legacy"`` / ``"manual"``
    method: str = "manual"
    #: free-form discovery context: RNG entropy words, shard index, trial
    #: counts, engine version, the exact search definition (used by the
    #: consult-before-recompute cache), ...
    provenance: dict = field(default_factory=dict)
    #: stamped by :func:`repro.io.witnessdb.verify_witness` replay
    verified: bool = False
    schema: int = WITNESS_SCHEMA
    #: deterministic identity hash; computed when left empty
    id: str = ""

    def __post_init__(self) -> None:
        self.configuration = tuple(int(c) for c in self.configuration)
        self.m, self.n = int(self.m), int(self.n)
        self.colors, self.k = int(self.colors), int(self.k)
        self.seed_size = int(self.seed_size)
        self.monotone = bool(self.monotone)
        self.verified = bool(self.verified)
        if not self.id:
            self.id = witness_id(
                self.rule, self.kind, self.m, self.n, self.colors, self.k,
                self.configuration,
            )

    @property
    def key(self) -> Tuple[str, str, int, int, int]:
        """The store's index key: ``(rule, kind, m, n, colors)``."""
        return (self.rule, self.kind, self.m, self.n, self.colors)

    def colors_array(self) -> np.ndarray:
        """The configuration as the engine's ``int32`` vector."""
        return np.asarray(self.configuration, dtype=np.int32)


def witness_to_dict(record: WitnessRecord) -> dict:
    """Serialize a witness record to its JSON-line payload.

    Returns a dict of plain JSON types tagged ``"type": "witness"``;
    :func:`witness_from_dict` inverts it exactly.
    """
    return {
        "type": "witness",
        "schema": int(record.schema),
        "id": record.id,
        "rule": record.rule,
        "kind": record.kind,
        "m": record.m,
        "n": record.n,
        "colors": record.colors,
        "k": record.k,
        "seed_size": record.seed_size,
        "monotone": record.monotone,
        "configuration": list(record.configuration),
        "method": record.method,
        "provenance": record.provenance,
        "verified": record.verified,
    }


_REQUIRED_WITNESS_FIELDS = (
    "rule", "kind", "m", "n", "colors", "k", "seed_size", "monotone",
    "configuration",
)


def witness_from_dict(payload: Mapping[str, Any]) -> WitnessRecord:
    """Deserialize (and validate) one witness payload.

    Accepts the current schema and upgrades *legacy* payloads — the
    ``save_configuration`` layout ``{kind, m, n, k, colors: [...]}`` that
    predates the witness store — into schema-current records with
    ``method="legacy"`` (seed size recovered as the count of ``k``-colored
    vertices, palette as the number of distinct colors, rule assumed
    ``"smp"``, ``monotone``/``verified`` conservatively ``False``).

    Raises
    ------
    WitnessFormatError
        On non-dict payloads, records from a newer schema, missing
        fields, a configuration whose length disagrees with ``m * n``,
        a size, color, palette size or seed size that is not a
        non-negative integer, or a stored ``seed_size`` that contradicts
        the configuration.
    """
    if not isinstance(payload, dict):
        raise WitnessFormatError(f"witness payload must be an object, got {type(payload).__name__}")
    if "schema" in payload or payload.get("type") == "witness":
        schema = payload.get("schema")
        if not isinstance(schema, int) or schema < 1:
            raise WitnessFormatError(f"bad schema field {schema!r}")
        if schema > WITNESS_SCHEMA:
            raise WitnessFormatError(
                f"record schema {schema} is newer than this build's "
                f"{WITNESS_SCHEMA}; upgrade the package to read it"
            )
        missing = [f for f in _REQUIRED_WITNESS_FIELDS if f not in payload]
        if missing:
            raise WitnessFormatError(f"witness record missing fields {missing}")
        record = _build_record(
            payload,
            configuration=payload["configuration"],
            num_colors=payload["colors"],
            method=str(payload.get("method", "manual")),
            rule=str(payload["rule"]),
            monotone=payload["monotone"],
            provenance=payload.get("provenance") or {},
            verified=bool(payload.get("verified", False)),
            seed_size=payload["seed_size"],
            stored_id=payload.get("id", ""),
        )
        return record
    # legacy: a save_configuration payload (no schema tag)
    if all(f in payload for f in ("kind", "m", "n", "colors")) and isinstance(
        payload["colors"], list
    ):
        k = payload.get("k")
        if k is None:
            raise WitnessFormatError("legacy configuration has no target color")
        meta = payload.get("metadata") or {}
        return _build_record(
            payload,
            configuration=payload["colors"],
            num_colors=None,
            method="legacy",
            rule="smp",
            monotone=False,
            provenance={"source": "legacy", "metadata": meta},
            verified=False,
            seed_size=None,
            stored_id="",
        )
    raise WitnessFormatError(
        "payload is neither a witness record nor a legacy configuration"
    )


def _build_record(
    payload: Mapping[str, Any],
    *,
    configuration: Iterable[int],
    num_colors: Optional[int],
    method: str,
    rule: str,
    monotone: bool,
    provenance: Any,
    verified: bool,
    seed_size: Optional[int],
    stored_id: str,
) -> WitnessRecord:
    """Shared validation tail of :func:`witness_from_dict`.

    ``num_colors=None`` (a legacy payload) counts the distinct colors of
    the configuration and ``k``; ``seed_size=None`` counts its k cells.
    Every size and color must be a non-negative integer: ``1.9`` or
    ``true`` is refused, not truncated to 1.
    """
    m, n, k = payload["m"], payload["n"], payload["k"]
    for name, value in (("m", m), ("n", n), ("k", k)):
        if not _is_count(value):
            raise WitnessFormatError(
                f"{name} must be a non-negative integer, got {value!r}"
            )
    if not _are_counts(configuration):
        raise WitnessFormatError(
            "configuration colors must be non-negative integers"
        )
    config = tuple(configuration)
    if len(config) != m * n:
        raise WitnessFormatError(
            f"configuration has {len(config)} entries for a {m}x{n} torus"
        )
    colors = len(set(config) | {k}) if num_colors is None else num_colors
    for name, value in (("colors", colors), ("seed_size", seed_size)):
        if value is not None and not _is_count(value):
            raise WitnessFormatError(
                f"{name} must be a non-negative integer, got {value!r}"
            )
    actual_seed = config.count(k)
    if seed_size is None:
        seed_size = actual_seed
    elif seed_size != actual_seed:
        raise WitnessFormatError(
            f"stored seed_size {seed_size} contradicts the configuration "
            f"({actual_seed} vertices of color {k})"
        )
    if not isinstance(provenance, dict):
        raise WitnessFormatError("provenance must be an object")
    record = WitnessRecord(
        rule=rule,
        kind=str(payload["kind"]),
        m=m,
        n=n,
        colors=colors,
        k=k,
        seed_size=seed_size,
        monotone=bool(monotone),
        configuration=config,
        method=method,
        provenance=provenance,
        verified=verified,
    )
    if stored_id and stored_id != record.id:
        raise WitnessFormatError(
            f"stored id {stored_id!r} does not match the identity hash "
            f"{record.id!r} (tampered or truncated record)"
        )
    return record
