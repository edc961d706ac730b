"""The value records of orihex: equality and hashing by fields, frozen
fields, the repr text, and cached properties kept out of all three."""

import pytest

from orihex.digraph import OrientedGraph, UndirectedGraph
from orihex.hexcolor import Prop1Check
from orihex.hexgrid import AxialFixture, HexGrid, LatticeCheck
from orihex.homomorphism import HomResult
from orihex.tournaments import Tournament
from orihex.verify import CheckRecord, VerificationReport

#: per record class: a factory of one instance (each call a new object), a
#: factory of one that differs in a field, its exact repr, whether its
#: fields hash, and a cached property (None when it has none)
RECORDS = {
    "UndirectedGraph": (
        lambda: UndirectedGraph(2, ((0, 1),)),
        lambda: UndirectedGraph(3, ((0, 1),)),
        "UndirectedGraph(n_vertices=2, edges=((0, 1),))",
        True,
        None,
    ),
    "OrientedGraph": (
        lambda: OrientedGraph(2, ((0, 1),)),
        lambda: OrientedGraph(2, ((1, 0),)),
        "OrientedGraph(n_vertices=2, arcs=((0, 1),))",
        True,
        "neighbors",
    ),
    "HexGrid": (
        lambda: HexGrid(1, 1, UndirectedGraph(2, ((0, 1),)), ((1, 1), (1, 2))),
        lambda: HexGrid(1, 2, UndirectedGraph(2, ((0, 1),)), ((1, 1), (1, 2))),
        "HexGrid(m=1, n=1, graph=UndirectedGraph(n_vertices=2, edges=((0, 1),)),"
        " coords=((1, 1), (1, 2)))",
        True,
        "index",
    ),
    "AxialFixture": (
        lambda: AxialFixture(OrientedGraph(2, ((0, 1),)), ((0, 1), (0, 2))),
        lambda: AxialFixture(OrientedGraph(2, ((0, 1),)), ((0, 1), (1, 0))),
        "AxialFixture(graph=OrientedGraph(n_vertices=2, arcs=((0, 1),)),"
        " coords=((0, 1), (0, 2)))",
        True,
        None,
    ),
    "LatticeCheck": (
        lambda: LatticeCheck(False, ("bad",)),
        lambda: LatticeCheck(True, ()),
        "LatticeCheck(ok=False, violations=('bad',))",
        True,
        None,
    ),
    "Tournament": (
        lambda: Tournament(3, (6, 4, 0)),
        lambda: Tournament(3, (2, 4, 1)),
        "Tournament(order=3, out_masks=(6, 4, 0))",
        True,
        "in_masks",
    ),
    "Prop1Check": (
        lambda: Prop1Check(False, {8: (1, 2)}, ((0, 0, (0, 0, 0)),)),
        lambda: Prop1Check(True, {8: (1, 2)}, ()),
        "Prop1Check(holds=False, table={8: (1, 2)}, missing=((0, 0, (0, 0, 0)),))",
        False,
        None,
    ),
    "HomResult": (
        lambda: HomResult(True, (0,), 1, 1),
        lambda: HomResult(True, (1,), 1, 1),
        "HomResult(found=True, witness=(0,), nodes_expanded=1, max_depth=1)",
        True,
        None,
    ),
    "CheckRecord": (
        lambda: CheckRecord("x", True, "PASS", {"k": 5}, {"a": [1]}, 0.5),
        lambda: CheckRecord("x", True, "FAIL", {"k": 5}, {"a": [1]}, 0.5),
        "CheckRecord(name='x', mandatory=True, verdict='PASS', inputs={'k': 5},"
        " details={'a': [1]}, elapsed_s=0.5)",
        False,
        None,
    ),
    "VerificationReport": (
        lambda: VerificationReport(0, "small"),
        lambda: VerificationReport(0, "full"),
        "VerificationReport(seed=0, scale='small', checks=[])",
        False,
        None,
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_semantics(name):
    make, make_other, text, hashable, cached = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != make_other()
    assert all(a != other() for (other, *_) in RECORDS.values() if other is not make)
    assert a != tuple(vars(a).values())
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    assert repr(a) == text
    if cached is not None:
        getattr(a, cached)
        assert cached in vars(a) and cached not in vars(b)
        assert repr(a) == text and a == b and hash(a) == hash(b)
    field = next(iter(vars(b)))
    if name == "VerificationReport":
        b.scale = "full"
        assert b == make_other()
        b.checks.append(None)
        assert make().checks == []
    else:
        with pytest.raises(AttributeError):
            setattr(b, field, 1)
        with pytest.raises(AttributeError):
            delattr(b, field)
        assert b == a


def test_records_of_different_classes_differ():
    assert OrientedGraph(2, ((0, 1),)) != UndirectedGraph(2, ((0, 1),))
    assert UndirectedGraph(2, ((0, 1),)) != OrientedGraph(2, ((0, 1),))


def test_records_take_their_fields_by_keyword():
    assert HomResult(found=False, witness=None, nodes_expanded=3, max_depth=2) == HomResult(
        False, None, 3, 2
    )
    assert VerificationReport(seed=1, scale="small", checks=[]).checks == []
    record = CheckRecord("x", False, "INFO", {}, {}, 0.12345)
    assert list(record.to_dict()) == ["name", "mandatory", "verdict", "inputs", "details",
                                      "elapsed_s"]
    assert record.to_dict()["elapsed_s"] == 0.1235
