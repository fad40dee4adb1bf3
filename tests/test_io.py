"""Serialization round-trips and schema error reporting."""

from __future__ import annotations

import copy
import json
import math
import re
from pathlib import Path

import pytest

from vneap.io import (
    FormatError,
    dump_applications,
    dump_efficiency,
    dump_requests,
    dump_substrate,
    load_applications,
    load_efficiency,
    load_requests,
    load_substrate,
    write_json,
)
from vneap.model import FORBIDDEN, EfficiencyMap, Request

from conftest import random_instance, toy_apps, toy_net, unit_requests

FORMATS = Path(__file__).parent.parent / "docs" / "FORMATS.md"

# The round-trip tests send a toy document and random_instance(seed)'s
# through JSON text, as write_json does, and load them back.
ROUND_TRIP_SEEDS = range(4)


def trip(doc: dict) -> dict:
    return json.loads(json.dumps(doc, allow_nan=False))


@pytest.mark.parametrize("seed", ROUND_TRIP_SEEDS)
def test_substrate_round_trip(seed):
    for net in (toy_net(link_cap=5000.0, node_cap=300.0), random_instance(seed)[0]):
        back = load_substrate(trip(dump_substrate(net)))
        assert back.nodes == net.nodes
        assert back.arcs == net.arcs


def test_substrate_round_trip_through_file(tmp_path):
    path = tmp_path / "net.json"
    write_json(path, dump_substrate(toy_net()))
    back = load_substrate(path)
    assert back.nodes == toy_net().nodes
    assert back.arcs == toy_net().arcs


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_write_json_refuses_a_number_no_loader_reads(tmp_path, value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(tmp_path / "x.json", dump_requests([Request("a", "cam", value)]))


def test_undirected_links_expand_to_arc_pairs():
    doc = {
        "nodes": [
            {"id": "a", "cost": 1.0, "capacity": 9.0},
            {"id": "b", "cost": 2.0, "capacity": 9.0},
        ],
        "links": [{"src": "a", "dst": "b", "cost": 0.5, "capacity": 4.0}],
    }
    net = load_substrate(doc)
    assert {(a.src, a.dst) for a in net.arcs} == {("a", "b"), ("b", "a")}
    assert all(a.cost == 0.5 and a.capacity == 4.0 for a in net.arcs)


@pytest.mark.parametrize("seed", ROUND_TRIP_SEEDS)
def test_applications_round_trip(seed):
    for catalog in (toy_apps(), random_instance(seed)[1]):
        back = load_applications(trip(dump_applications(catalog)))
        assert set(back) == set(catalog)
        for app_id, app in catalog.items():
            assert len(back[app_id].alternatives) == len(app.alternatives)
            for alt, alt2 in zip(app.alternatives, back[app_id].alternatives):
                assert alt2.index == alt.index
                assert alt2.root == alt.root
                assert alt2.nodes == alt.nodes
                assert alt2.links == alt.links


@pytest.mark.parametrize("seed", ROUND_TRIP_SEEDS)
def test_requests_round_trip(seed):
    for reqs in (unit_requests(3) + [Request("C", "cam", 2.5)], random_instance(seed)[3]):
        assert load_requests(trip(dump_requests(reqs))) == reqs


@pytest.mark.parametrize("seed", ROUND_TRIP_SEEDS)
def test_efficiency_round_trip_keeps_forbidden_entries(seed):
    toy = EfficiencyMap(
        node_coeffs={("A", "E"): FORBIDDEN, ("A", "C"): 0.8},
        link_coeffs={(("A", "B"), ("E", "C")): 1.5},
        default=0.9,
    )
    for eff in (toy, random_instance(seed)[2]):
        back = load_efficiency(trip(dump_efficiency(eff)))
        assert back.node_coeffs == eff.node_coeffs
        assert back.link_coeffs == eff.link_coeffs
        assert back.default == eff.default


def test_no_efficiency_source_means_all_defaults():
    eff = load_efficiency(None)
    assert eff.node_coeffs == {} and eff.link_coeffs == {}
    assert eff.node("anything", "anywhere") == 1.0


@pytest.mark.parametrize(
    "section, load",
    [
        ("Substrate network", load_substrate),
        ("Application catalog", load_applications),
        ("Requests", load_requests),
        ("Efficiency map", load_efficiency),
    ],
)
def test_formats_example_loads(section, load):
    """docs/FORMATS.md's example of each input document loads as it stands."""
    text = FORMATS.read_text().split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    load(json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1)))


def test_bundled_catalogs_load():
    from importlib import resources

    for name in ("cctv_two", "cctv_four"):
        path = resources.files("vneap").joinpath(f"fixtures/{name}.json")
        catalog = load_applications(str(path))
        assert catalog, name
        for app in catalog.values():
            assert app.alternatives


# -- error reporting ---------------------------------------------------------


def test_missing_field_names_the_field():
    with pytest.raises(FormatError, match="missing required field 'capacity'"):
        load_substrate({"nodes": [{"id": "a", "cost": 1.0}], "links": []})


SUBSTRATE = {
    "nodes": [{"id": "a", "cost": 1.0, "capacity": 9.0}, {"id": "b", "cost": 2.0, "capacity": 9.0}],
    "links": [{"src": "a", "dst": "b", "cost": 0.5, "capacity": 4.0}],
}
REQUESTS = {"requests": [{"origin": "a", "app": "cam", "demand": 2.0}]}
CATALOG = {"applications": [{"id": "cam", "alternatives": [
    {"index": 0, "root": "r", "nodes": [{"id": "r", "size": 0.0}, {"id": "f", "size": 5.0}],
     "links": [{"parent": "r", "child": "f", "size": 1.0}]},
]}]}
EFFICIENCY = {"links": [{"link": ["r", "f"], "arc": ["a", "b"], "coeff": 1.5}]}
MISSING = object()


@pytest.mark.parametrize(
    "load, doc, path, key, value",
    [
        (load_substrate, SUBSTRATE, ["nodes", 0], "capacity", math.nan),
        (load_substrate, SUBSTRATE, ["links", 0], "cost", "10"),
        (load_substrate, SUBSTRATE, ["nodes", 1], "id", 5),
        (load_substrate, SUBSTRATE, ["links", 0], "directed", "false"),
        (load_requests, REQUESTS, ["requests", 0], "demand", True),
        (load_requests, REQUESTS, ["requests", 0], "demand", math.nan),
        (load_applications, CATALOG, ["applications", 0, "alternatives", 0, "nodes", 1], "size", MISSING),
        (load_efficiency, EFFICIENCY, ["links", 0], "coeff", MISSING),
        (load_efficiency, EFFICIENCY, ["links", 0], "coeff", math.inf),
    ],
    ids=["capacity-nan", "cost-string", "id-integer", "directed-string", "demand-bool",
         "demand-nan", "size-missing", "coeff-missing", "coeff-inf"],
)
def test_bad_value_is_a_format_error_naming_its_key(load, doc, path, key, value):
    """``doc`` loads, but not with ``key`` of the object at ``path`` set to
    ``value`` (or deleted): no value is converted from another JSON type, a
    number is finite, and a missing value is named, not a KeyError."""
    load(doc)
    doc = copy.deepcopy(doc)
    target = doc
    for step in path:
        target = target[step]
    if value is MISSING:
        del target[key]
    else:
        target[key] = value
    with pytest.raises(FormatError, match=f"'{key}'"):
        load(doc)


OBJECTS = [
    (load_substrate, SUBSTRATE, []),
    (load_substrate, SUBSTRATE, ["nodes", 1]),
    (load_substrate, SUBSTRATE, ["links", 0]),
    (load_requests, REQUESTS, []),
    (load_requests, REQUESTS, ["requests", 0]),
    (load_applications, CATALOG, []),
    (load_applications, CATALOG, ["applications", 0]),
    (load_applications, CATALOG, ["applications", 0, "alternatives", 0]),
    (load_applications, CATALOG, ["applications", 0, "alternatives", 0, "nodes", 1]),
    (load_applications, CATALOG, ["applications", 0, "alternatives", 0, "links", 0]),
    (load_efficiency, EFFICIENCY, []),
    (load_efficiency, {"nodes": [{"function": "f", "node": "a", "coeff": 2.0}]}, ["nodes", 0]),
    (load_efficiency, EFFICIENCY, ["links", 0]),
]


def _with_key(doc, path, key, value):
    doc = copy.deepcopy(doc)
    target = doc
    for step in path:
        target = target[step]
    target[key] = value
    return doc


@pytest.mark.parametrize("load, doc, path", OBJECTS)
def test_unknown_key_is_a_format_error_naming_it(load, doc, path):
    """Every object of an input document holds only its own keys, plus a
    free-text ``comment`` and the ``schema_version``, which is the integer 1."""
    load(_with_key(doc, path, "comment", "free text"))
    load(_with_key(doc, path, "schema_version", 1))
    for version in (2, "1"):
        with pytest.raises(FormatError, match="'schema_version'"):
            load(_with_key(doc, path, "schema_version", version))
    with pytest.raises(FormatError, match="unknown key\\(s\\) 'colour'"):
        load(_with_key(doc, path, "colour", "red"))


def test_misspelled_optional_keys_are_refused_where_they_are():
    """Ignored, ``directd`` would expand the link into two arcs and
    ``teir`` would leave the node without a tier."""
    with pytest.raises(FormatError, match="substrate link 0: unknown key\\(s\\) 'directd'"):
        load_substrate(_with_key(SUBSTRATE, ["links", 0], "directd", True))
    with pytest.raises(FormatError, match="substrate node 1: unknown key\\(s\\) 'teir'"):
        load_substrate(_with_key(SUBSTRATE, ["nodes", 1], "teir", "edge"))


def test_invalid_json_reports_the_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"nodes": [,]}')
    with pytest.raises(FormatError, match="invalid JSON at line 1"):
        load_substrate(path)


def test_a_file_that_is_not_utf_8_is_a_format_error_naming_it(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: 'utf-8' codec can't decode"):
        load_substrate(path)


def test_missing_file_is_a_format_error(tmp_path):
    with pytest.raises(FormatError):
        load_substrate(tmp_path / "nope.json")


def test_duplicate_application_id_rejected():
    doc = dump_applications(toy_apps())
    doc["applications"].append(json.loads(json.dumps(doc["applications"][0])))
    with pytest.raises(FormatError, match="duplicate application id"):
        load_applications(doc)


def test_application_without_alternatives_rejected():
    with pytest.raises(FormatError, match="no alternatives"):
        load_applications({"applications": [{"id": "x", "alternatives": []}]})


def test_efficiency_link_entry_must_be_pairs():
    doc = {"links": [{"link": ["A", "B", "C"], "arc": ["E", "C"], "coeff": 1.0}]}
    with pytest.raises(FormatError, match="must be pairs"):
        load_efficiency(doc)
