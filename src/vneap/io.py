"""JSON (de)serialization for all domain entities.

File formats are documented field-for-field in ``docs/FORMATS.md``.
Every loader accepts either a path or an already-parsed dict; every
dumper returns a plain dict, so round-tripping is
``load_x(dump_x(value)) == value``.
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


REQUIRED = object()

# Keys every object of a substrate, catalog, request or efficiency document
# may carry besides its own: free text, and the document's version.
ANNOTATIONS = ("comment", "schema_version")


def known(doc, keys, where: str):
    """``doc``, checked to hold no key outside ``keys``: any other is a
    FormatError naming ``where`` and the key, so a misspelled optional key
    is refused instead of silently taking its default."""
    if isinstance(doc, Mapping):
        unknown = sorted(set(doc) - set(keys))
        if unknown:
            raise FormatError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")
    return doc


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


# -- substrate ---------------------------------------------------------------


def load_substrate(source: Source) -> SubstrateNetwork:
    doc = known(_load(source), ("nodes", "links", *ANNOTATIONS), "substrate")
    nodes = []
    for i, n in enumerate(field(doc, "nodes", array, "substrate")):
        where = f"substrate node {i}"
        known(n, ("id", "cost", "capacity", "tier", *ANNOTATIONS), where)
        nodes.append(
            SubstrateNode(
                id=field(n, "id", string, where),
                cost=field(n, "cost", number, where),
                capacity=field(n, "capacity", number, where),
                tier=field(n, "tier", string, where, None),
            )
        )
    arcs: list[SubstrateArc] = []
    for i, l in enumerate(field(doc, "links", array, "substrate")):
        where = f"substrate link {i}"
        known(l, ("src", "dst", "cost", "capacity", "directed", *ANNOTATIONS), where)
        src = field(l, "src", string, where)
        dst = field(l, "dst", string, where)
        cost = field(l, "cost", number, where)
        cap = field(l, "capacity", number, where)
        arcs.append(SubstrateArc(src, dst, cost, cap))
        if not field(l, "directed", boolean, where, False):
            arcs.append(SubstrateArc(dst, src, cost, cap))
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


def load_applications(source: Source) -> dict[str, Application]:
    doc = known(_load(source), ("applications", *ANNOTATIONS), "application catalog")
    catalog: dict[str, Application] = {}
    for a in field(doc, "applications", array, "application catalog"):
        app_id = field(a, "id", string, "application")
        known(a, ("id", "alternatives", *ANNOTATIONS), f"application {app_id}")
        alts = []
        for j, t in enumerate(field(a, "alternatives", array, f"application {app_id}")):
            where = f"application {app_id} alternative {j}"
            known(t, ("index", "root", "nodes", "links", *ANNOTATIONS), where)
            nodes = []
            for i, n in enumerate(field(t, "nodes", array, where)):
                at = f"{where} node {i}"
                known(n, ("id", "size", *ANNOTATIONS), at)
                nodes.append(VirtualNode(field(n, "id", string, at), field(n, "size", number, at)))
            links = []
            for i, l in enumerate(field(t, "links", array, where, ())):
                at = f"{where} link {i}"
                known(l, ("parent", "child", "size", *ANNOTATIONS), at)
                links.append(
                    VirtualLink(field(l, "parent", string, at),
                                field(l, "child", string, at),
                                field(l, "size", number, at))
                )
            alts.append(
                AlternativeTopology(
                    app_id=app_id,
                    index=field(t, "index", integer, where),
                    nodes=nodes,
                    links=links,
                    root=field(t, "root", string, where),
                )
            )
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


def load_efficiency(source: Optional[Source]) -> EfficiencyMap:
    """Load an efficiency map; ``None`` yields the all-defaults map."""
    if source is None:
        return EfficiencyMap()
    doc = known(_load(source), ("default", "nodes", "links", *ANNOTATIONS), "efficiency map")
    node_coeffs = {}
    for i, entry in enumerate(field(doc, "nodes", array, "efficiency map", ())):
        where = f"efficiency node entry {i}"
        known(entry, ("function", "node", "coeff", "forbidden", *ANNOTATIONS), where)
        key = (field(entry, "function", string, where), field(entry, "node", string, where))
        forbidden = field(entry, "forbidden", boolean, where, False)
        node_coeffs[key] = FORBIDDEN if forbidden else field(entry, "coeff", number, where)
    link_coeffs = {}
    for i, entry in enumerate(field(doc, "links", array, "efficiency map", ())):
        where = f"efficiency link entry {i}"
        known(entry, ("link", "arc", "coeff", "forbidden", *ANNOTATIONS), where)
        vlink = field(entry, "link", names, where)
        arc = field(entry, "arc", names, where)
        if len(vlink) != 2 or len(arc) != 2:
            raise FormatError(f"{where}: 'link' and 'arc' must be pairs")
        forbidden = field(entry, "forbidden", boolean, where, False)
        link_coeffs[(vlink, arc)] = FORBIDDEN if forbidden else field(entry, "coeff", number, where)
    default = field(doc, "default", number, "efficiency map", 1.0)
    return EfficiencyMap(node_coeffs, link_coeffs, default)


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


def load_requests(source: Source) -> list[Request]:
    doc = known(_load(source), ("requests", *ANNOTATIONS), "request list")
    requests = []
    for i, r in enumerate(field(doc, "requests", array, "request list")):
        where = f"request {i}"
        known(r, ("origin", "app", "demand", *ANNOTATIONS), where)
        requests.append(
            Request(
                origin=field(r, "origin", string, where),
                app=field(r, "app", string, where),
                demand=field(r, "demand", number, where),
            )
        )
    return requests


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
