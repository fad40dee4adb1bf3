"""Domain model: construction, validation rules, and traversal order."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from vneap.model import (
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
    link_preorder,
    sum_in_order,
    validate_application,
    validate_requests,
    validate_substrate,
)

from conftest import toy_apps, toy_net


def rules(violations):
    return {v.rule for v in violations}


def test_sum_in_order_adds_left_to_right():
    """Each partial sum is rounded, as builtin ``sum`` did before Python
    3.12; a compensated sum would give 1.0.  An empty sum is the int 0,
    as with builtin ``sum``."""
    assert sum_in_order([1e16, 1.0, -1e16]) == 0.0
    assert sum_in_order(x for x in [0.1, 0.2, 0.3]) == (0.1 + 0.2) + 0.3
    assert sum_in_order([]) == 0 and type(sum_in_order([])) is int


# -- substrate -------------------------------------------------------------


def test_toy_substrate_is_clean():
    assert validate_substrate(toy_net()) == []


def test_dangling_arc_is_flagged():
    net = SubstrateNetwork(
        [SubstrateNode("a", 1.0, 10.0)],
        [SubstrateArc("a", "ghost", 1.0, 10.0)],
    )
    assert rules(validate_substrate(net)) == {"DanglingArc"}


def test_negative_capacity_is_flagged():
    net = SubstrateNetwork([SubstrateNode("a", 1.0, -5.0)], [])
    assert rules(validate_substrate(net)) == {"NegativeCapacity"}


@pytest.mark.parametrize(
    "nodes,arcs,expected",
    [
        (
            [SubstrateNode("a", 1.0, 1.0), SubstrateNode("a", 2.0, 1.0)],
            [],
            "DuplicateNode",
        ),
        (
            [SubstrateNode("a", 1.0, 1.0)],
            [SubstrateArc("a", "a", 1.0, 1.0)],
            "SelfLoopArc",
        ),
        (
            [SubstrateNode("a", 1.0, 1.0), SubstrateNode("b", 1.0, 1.0)],
            [SubstrateArc("a", "b", 1.0, 1.0), SubstrateArc("a", "b", 2.0, 1.0)],
            "DuplicateArc",
        ),
        (
            [SubstrateNode("a", -1.0, 1.0)],
            [],
            "NegativeCost",
        ),
        (
            [SubstrateNode("a", 1.0, 1.0, tier="attic")],
            [],
            "UnknownTier",
        ),
    ],
)
def test_substrate_rule(nodes, arcs, expected):
    assert expected in rules(validate_substrate(SubstrateNetwork(nodes, arcs)))


def test_substrate_lookups():
    net = toy_net()
    assert net.node_by_id["C"].cost == 1.0
    assert net.arc_by_pair[("E", "C")].capacity == 1e12
    assert [a.dst for a in net.out_arcs["E"]] == ["C"]


# -- applications ----------------------------------------------------------


def chain_alt(*sizes: float, app_id: str = "app", index: int = 0) -> AlternativeTopology:
    """root -> f1 -> f2 ... with the given non-root sizes; unit links."""
    nodes = [VirtualNode("root", 0.0)]
    links = []
    prev = "root"
    for i, s in enumerate(sizes, 1):
        nodes.append(VirtualNode(f"f{i}", s))
        links.append(VirtualLink(prev, f"f{i}", 1.0))
        prev = f"f{i}"
    return AlternativeTopology(app_id, index, nodes, links, "root")


def test_toy_applications_are_clean():
    for app in toy_apps().values():
        assert validate_application(app) == []


def test_root_size_must_be_zero():
    alt = AlternativeTopology(
        "a", 0, [VirtualNode("r", 2.0)], [], "r"
    )
    assert "RootSizeNonzero" in rules(validate_application(Application("a", (alt,))))


def test_unknown_root_is_flagged():
    alt = AlternativeTopology("a", 0, [VirtualNode("r", 0.0)], [], "nope")
    assert "UnknownRoot" in rules(validate_application(Application("a", (alt,))))


def test_two_parents_is_not_a_tree():
    alt = AlternativeTopology(
        "a",
        0,
        [VirtualNode("r", 0.0), VirtualNode("x", 1.0), VirtualNode("y", 1.0)],
        [
            VirtualLink("r", "x", 1.0),
            VirtualLink("r", "y", 1.0),
            VirtualLink("x", "y", 1.0),
        ],
        "r",
    )
    assert "NotATree" in rules(validate_application(Application("a", (alt,))))


def test_unreachable_node_is_not_a_tree():
    alt = AlternativeTopology(
        "a",
        0,
        [VirtualNode("r", 0.0), VirtualNode("island", 1.0)],
        [],
        "r",
    )
    assert "NotATree" in rules(validate_application(Application("a", (alt,))))


def test_dangling_link_is_flagged():
    alt = AlternativeTopology(
        "a",
        0,
        [VirtualNode("r", 0.0)],
        [VirtualLink("r", "ghost", 1.0)],
        "r",
    )
    assert "DanglingLink" in rules(validate_application(Application("a", (alt,))))


def test_negative_sizes_are_flagged():
    alt = AlternativeTopology(
        "a",
        0,
        [VirtualNode("r", 0.0), VirtualNode("f", -3.0)],
        [VirtualLink("r", "f", -1.0)],
        "r",
    )
    assert rules(validate_application(Application("a", (alt,)))) >= {"NegativeSize"}


def test_application_needs_alternatives():
    assert "NoAlternatives" in rules(validate_application(Application("a", ())))


def test_duplicate_alternative_indices_are_flagged():
    alts = (chain_alt(1.0, index=0), chain_alt(2.0, index=0))
    assert "DuplicateAlternative" in rules(validate_application(Application("app", alts)))


# -- requests --------------------------------------------------------------


def test_toy_requests_are_clean():
    net, catalog = toy_net(), toy_apps()
    reqs = [Request("E", "cam", 2.0), Request("C", "cam", 0.5)]
    assert validate_requests(reqs, net, catalog) == []


@pytest.mark.parametrize(
    "request_,expected",
    [
        (Request("E", "cam", 0.0), "NonPositiveDemand"),
        (Request("E", "cam", -1.0), "NonPositiveDemand"),
        (Request("Mars", "cam", 1.0), "UnknownOrigin"),
        (Request("E", "fax", 1.0), "UnknownApplication"),
    ],
)
def test_request_rule(request_, expected):
    out = validate_requests([request_], toy_net(), toy_apps())
    assert expected in rules(out)


# -- efficiency map --------------------------------------------------------


def test_forbidden_pairs_are_legal_but_zero_is_not():
    ok = EfficiencyMap(node_coeffs={("f", "a"): FORBIDDEN, ("f", "b"): 0.5})
    assert ok.violations() == []
    assert ok.node("f", "a") is FORBIDDEN
    assert ok.node("f", "b") == 0.5
    assert ok.node("f", "elsewhere") == 1.0

    bad = EfficiencyMap(node_coeffs={("f", "a"): 0.0}, default=-1.0)
    assert rules(bad.violations()) == {"NonPositiveCoefficient"}
    assert len(bad.violations()) == 2


# -- traversal order -------------------------------------------------------


def test_preorder_on_a_chain_is_the_chain():
    alt = chain_alt(1.0, 2.0, 3.0)
    assert [(l.parent, l.child) for l in link_preorder(alt)] == [
        ("root", "f1"),
        ("f1", "f2"),
        ("f2", "f3"),
    ]


def test_preorder_of_single_node_is_empty():
    alt = AlternativeTopology("a", 0, [VirtualNode("r", 0.0)], [], "r")
    assert link_preorder(alt) == []


def test_preorder_rejects_non_trees():
    alt = AlternativeTopology(
        "a",
        0,
        [VirtualNode("r", 0.0), VirtualNode("x", 1.0)],
        [],
        "r",
    )
    with pytest.raises(ValueError):
        link_preorder(alt)


@st.composite
def random_trees(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    parents = [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, n)]
    nodes = [VirtualNode("n0", 0.0)] + [
        VirtualNode(f"n{i}", float(i)) for i in range(1, n)
    ]
    links = [
        VirtualLink(f"n{p}", f"n{i}", 1.0) for i, p in enumerate(parents, start=1)
    ]
    return AlternativeTopology("rand", 0, nodes, links, "n0")


@given(random_trees())
def test_preorder_emits_parents_before_children(alt):
    order = link_preorder(alt)
    assert sorted((l.parent, l.child) for l in order) == sorted(
        (l.parent, l.child) for l in alt.links
    )
    introduced = {alt.root}
    for link in order:
        assert link.parent in introduced
        introduced.add(link.child)
    assert introduced == {n.id for n in alt.nodes}
