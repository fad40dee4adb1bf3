"""JSON (de)serialization for all domain entities.

File formats are documented field-for-field in ``docs/FORMATS.md``.
Every loader accepts either a path or an already-parsed dict; every
dumper returns a plain dict, so round-tripping is
``load_x(dump_x(value)) == value``.

Each kind of JSON object has one table below mapping every key it may
hold to the reader of its value, and each loader (the CLI's scenario
loader too) reads an object through fields() and its table.  Objects of
substrate, catalog, request and efficiency documents may also hold the
ANNOTATIONS: a ``comment``, never read, and a ``schema_version``, which
must be the integer 1.  Every key present is read, so an efficiency
entry's ``coeff`` is type-checked even beside ``"forbidden": true``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from .model import (
    FORBIDDEN,
    AlternativeTopology,
    Application,
    EfficiencyMap,
    Request,
    SubstrateArc,
    SubstrateNetwork,
    SubstrateNode,
    VirtualLink,
    VirtualNode,
)

SCHEMA_VERSION = 1

Source = Union[str, Path, Mapping]


class FormatError(ValueError):
    """Raised when an input document does not match its schema."""


def _load(source: Source) -> Mapping:
    if isinstance(source, Mapping):
        return source
    path = Path(source)
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror}") from exc


# -- value readers: each returns a value of its JSON type, or raises a TypeError
# or ValueError that field() turns into a FormatError naming the key.


def _exactly(kind: type, name: str):
    """A reader of values already a ``kind`` (``str`` would make a string of
    any value, and truthiness reads "false" as true)."""

    def read(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {name}, not {type(value).__name__}")
        return value

    return read


string = _exactly(str, "a string")
boolean = _exactly(bool, "true or false")
array = _exactly(list, "an array")  # iterating a string would read its letters


def integer(value) -> int:
    """A JSON integer (``int`` would truncate 7.9 and accept true)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, not {value!r}")
    return value


def number(value) -> float:
    """A finite JSON number (``float`` would read "0.8", true and NaN)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, not {value!r}")
    result = float(value)  # an integer too large for a float overflows
    if not math.isfinite(result):
        raise ValueError(f"expected a finite number, not {value!r}")
    return result


def names(value) -> tuple[str, ...]:
    """A list of names (``tuple`` would split a lone string into letters)."""
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise TypeError(f"expected a list of names, not {value!r}")
    return tuple(value)


def version(value) -> None:
    """The integer 1, this vneap's SCHEMA_VERSION, read to None so that
    fields() leaves it out of an object's values."""
    if integer(value) != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {value!r}")


# Keys every object of a substrate, catalog, request or efficiency document
# may carry besides its own: free text, never read, and the document's version.
ANNOTATIONS = {"comment": None, "schema_version": version}

REQUIRED = object()


def field(doc, key: str, read, where: str, default=REQUIRED):
    """``doc[key]`` as ``read`` reads it, or ``default`` if the key is absent
    or null.  A ``doc`` that is not a JSON object, a missing required key
    and a value ``read`` refuses are FormatErrors naming ``where`` and the key."""
    if not isinstance(doc, Mapping):
        raise FormatError(f"{where}: expected a JSON object, not {type(doc).__name__}")
    value = doc.get(key)
    if value is None:
        if default is REQUIRED:
            raise FormatError(f"{where}: missing required field {key!r}")
        return default
    try:
        return read(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{where}: {key!r}: {exc}") from None


def fields(doc, table: Mapping, where: str, required: tuple[str, ...] = ()) -> dict:
    """``doc``'s non-null values, each read by field() with the reader
    ``table`` maps its key to.  A key outside ``table`` is a FormatError
    naming ``where`` and the key, so a misspelled optional key is refused
    instead of silently taking its default; a key mapped to None is
    allowed but not read."""
    if isinstance(doc, Mapping):
        unknown = sorted(set(doc) - set(table))
        if unknown:
            raise FormatError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")
    values = {}
    for key, read in table.items():
        if read is not None:
            value = field(doc, key, read, where, REQUIRED if key in required else None)
            if value is not None:
                values[key] = value
    return values


# -- substrate ---------------------------------------------------------------

SUBSTRATE = {"nodes": array, "links": array, **ANNOTATIONS}
SUBSTRATE_NODE = {"id": string, "cost": number, "capacity": number, "tier": string, **ANNOTATIONS}
SUBSTRATE_LINK = {
    "src": string, "dst": string, "cost": number, "capacity": number, "directed": boolean,
    **ANNOTATIONS,
}


def load_substrate(source: Source) -> SubstrateNetwork:
    doc = fields(_load(source), SUBSTRATE, "substrate", ("nodes", "links"))
    nodes = [
        SubstrateNode(**fields(n, SUBSTRATE_NODE, f"substrate node {i}", ("id", "cost", "capacity")))
        for i, n in enumerate(doc["nodes"])
    ]
    arcs: list[SubstrateArc] = []
    for i, l in enumerate(doc["links"]):
        link = fields(l, SUBSTRATE_LINK, f"substrate link {i}", ("src", "dst", "cost", "capacity"))
        directed = link.pop("directed", False)
        arc = SubstrateArc(**link)
        arcs.append(arc)
        if not directed:
            arcs.append(SubstrateArc(arc.dst, arc.src, arc.cost, arc.capacity))
    return SubstrateNetwork(nodes, arcs)


def dump_substrate(net: SubstrateNetwork) -> dict:
    # Arcs are emitted individually (directed) so the dump is a faithful
    # image of the in-memory network regardless of how it was built.
    return {
        "schema_version": SCHEMA_VERSION,
        "nodes": [
            {
                "id": n.id,
                "cost": n.cost,
                "capacity": n.capacity,
                **({"tier": n.tier} if n.tier is not None else {}),
            }
            for n in net.nodes
        ],
        "links": [
            {"src": a.src, "dst": a.dst, "cost": a.cost, "capacity": a.capacity, "directed": True}
            for a in net.arcs
        ],
    }


# -- applications ------------------------------------------------------------

CATALOG = {"applications": array, **ANNOTATIONS}
APPLICATION = {"id": None, "alternatives": array, **ANNOTATIONS}  # id is read first, to name the rest
ALTERNATIVE = {"index": integer, "root": string, "nodes": array, "links": array, **ANNOTATIONS}
VIRTUAL_NODE = {"id": string, "size": number, **ANNOTATIONS}
VIRTUAL_LINK = {"parent": string, "child": string, "size": number, **ANNOTATIONS}


def load_applications(source: Source) -> dict[str, Application]:
    doc = fields(_load(source), CATALOG, "application catalog", ("applications",))
    catalog: dict[str, Application] = {}
    for a in doc["applications"]:
        app_id = field(a, "id", string, "application")
        app = fields(a, APPLICATION, f"application {app_id}", ("alternatives",))
        alts = []
        for j, t in enumerate(app["alternatives"]):
            where = f"application {app_id} alternative {j}"
            alt = fields(t, ALTERNATIVE, where, ("index", "root", "nodes"))
            nodes = [
                VirtualNode(**fields(n, VIRTUAL_NODE, f"{where} node {i}", ("id", "size")))
                for i, n in enumerate(alt["nodes"])
            ]
            links = [
                VirtualLink(**fields(l, VIRTUAL_LINK, f"{where} link {i}", ("parent", "child", "size")))
                for i, l in enumerate(alt.get("links", ()))
            ]
            alts.append(AlternativeTopology(app_id, alt["index"], nodes, links, alt["root"]))
        if app_id in catalog:
            raise FormatError(f"duplicate application id {app_id!r}")
        if not alts:
            raise FormatError(f"application {app_id!r} has no alternatives")
        catalog[app_id] = Application(app_id, tuple(alts))
    return catalog


def dump_applications(catalog: Mapping[str, Application]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "applications": [
            {
                "id": app.id,
                "alternatives": [
                    {
                        "index": alt.index,
                        "root": alt.root,
                        "nodes": [{"id": n.id, "size": n.size} for n in alt.nodes],
                        "links": [
                            {"parent": l.parent, "child": l.child, "size": l.size}
                            for l in alt.links
                        ],
                    }
                    for alt in app.alternatives
                ],
            }
            for app in catalog.values()
        ],
    }


# -- efficiency map ----------------------------------------------------------

EFFICIENCY = {"default": number, "nodes": array, "links": array, **ANNOTATIONS}
# an entry's coeff is read even beside "forbidden", and required only without it
EFFICIENCY_ENTRY = {"coeff": number, "forbidden": boolean, **ANNOTATIONS}
EFFICIENCY_NODE = {"function": string, "node": string, **EFFICIENCY_ENTRY}
EFFICIENCY_LINK = {"link": names, "arc": names, **EFFICIENCY_ENTRY}


def load_efficiency(source: Optional[Source]) -> EfficiencyMap:
    """Load an efficiency map; ``None`` yields the all-defaults map."""
    if source is None:
        return EfficiencyMap()
    doc = fields(_load(source), EFFICIENCY, "efficiency map")
    coeffs = []
    for kind, table, pairing in (
        ("node", EFFICIENCY_NODE, ("function", "node")),
        ("link", EFFICIENCY_LINK, ("link", "arc")),
    ):
        found = {}
        for i, e in enumerate(doc.get(kind + "s", ())):
            where = f"efficiency {kind} entry {i}"
            entry = fields(e, table, where, pairing)
            key = tuple(entry[k] for k in pairing)
            if kind == "link" and not all(len(pair) == 2 for pair in key):
                raise FormatError(f"{where}: 'link' and 'arc' must be pairs")
            found[key] = FORBIDDEN if entry.get("forbidden") else field(e, "coeff", number, where)
        coeffs.append(found)
    return EfficiencyMap(*coeffs, doc.get("default", 1.0))


def dump_efficiency(eff: EfficiencyMap) -> dict:
    nodes = []
    for (fn, node), c in eff.node_coeffs.items():
        entry = {"function": fn, "node": node}
        if c is FORBIDDEN:
            entry["forbidden"] = True
        else:
            entry["coeff"] = c
        nodes.append(entry)
    links = []
    for (vlink, arc), c in eff.link_coeffs.items():
        entry = {"link": list(vlink), "arc": list(arc)}
        if c is FORBIDDEN:
            entry["forbidden"] = True
        else:
            entry["coeff"] = c
        links.append(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "default": eff.default,
        "nodes": nodes,
        "links": links,
    }


# -- requests ----------------------------------------------------------------

REQUEST_LIST = {"requests": array, **ANNOTATIONS}
REQUEST = {"origin": string, "app": string, "demand": number, **ANNOTATIONS}


def load_requests(source: Source) -> list[Request]:
    doc = fields(_load(source), REQUEST_LIST, "request list", ("requests",))
    return [
        Request(**fields(r, REQUEST, f"request {i}", ("origin", "app", "demand")))
        for i, r in enumerate(doc["requests"])
    ]


def dump_requests(requests: Sequence[Request]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "requests": [
            {"origin": r.origin, "app": r.app, "demand": r.demand} for r in requests
        ],
    }


def write_json(path: Union[str, Path], doc: Mapping) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False, allow_nan=False)
        fh.write("\n")
