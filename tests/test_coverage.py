import json

import hypothesis
import pytest
from hypothesis import strategies as st

from cdckit.coverage import BINS, CoverageDb, merge, report
from cdckit.errors import FingerprintMismatch, UnknownPair


def fresh(pairs=("cdc0",), fp="ab" * 8):
    return CoverageDb(fp, "sim", tuple(pairs))


def test_record_single():
    db = fresh()
    db.record("cdc0", 0, "setup", 0)
    assert db.count("cdc0", 0, "setup0") == 1
    assert all(db.count("cdc0", 0, b) == 0 for b in BINS[1:])


def test_record_hundred():
    db = fresh()
    for _ in range(100):
        db.record("cdc0", 0, "hold", 1)
    assert db.count("cdc0", 0, "hold1") == 100


def test_unknown_pair():
    with pytest.raises(UnknownPair):
        fresh().record("cdc9", 0, "setup", 1)


def test_merge_identity_and_commutativity():
    a = fresh()
    a.record("cdc0", 0, "setup", 1)
    empty = fresh()
    assert merge(a, empty).to_json_dict()["bins"] == a.to_json_dict()["bins"]
    b = fresh()
    b.record("cdc0", 0, "hold", 0)
    a.edges, a.seeds, b.edges, b.seeds = {"clk": 3}, [1], {"clk": 4}, [2]
    before = (a.to_json(), b.to_json())
    ab = merge(a, b)
    ba = merge(b, a)
    assert ab.to_json_dict()["bins"] == ba.to_json_dict()["bins"]
    assert ab.edges == ba.edges == {"clk": 7}
    # merge builds a new database: neither input changes
    assert (a.to_json(), b.to_json()) == before
    assert merge(merge(a, b), a).count("cdc0", 0, "setup1") == 2
    assert (a.to_json(), b.to_json()) == before


def test_merge_fingerprint_mismatch():
    with pytest.raises(FingerprintMismatch):
        merge(fresh(fp="00" * 8), fresh(fp="ff" * 8))


def test_merge_keeps_left_scope_and_concats_seeds():
    a = fresh()
    a.scope = "ip:block"
    a.seeds = [1, 2]
    b = fresh()
    b.scope = "soc:top"
    b.seeds = [3]
    m = merge(a, b)
    assert m.scope == "ip:block" and m.seeds == [1, 2, 3]
    assert merge(a, b, scope="soc:merged").scope == "soc:merged"


events = st.lists(
    st.tuples(st.sampled_from(["cdc0", "cdc1"]), st.integers(0, 2),
              st.sampled_from(["setup", "hold"]), st.integers(0, 1)),
    max_size=60)


def _db_from(evs):
    db = fresh(pairs=("cdc0", "cdc1"))
    for pair, bit, kind, value in evs:
        db.record(pair, bit, kind, value)
    return db


@hypothesis.given(events, events, events)
@hypothesis.settings(max_examples=350, deadline=None)
def test_merge_associative_commutative(e1, e2, e3):
    a, b, c = _db_from(e1), _db_from(e2), _db_from(e3)
    left = merge(merge(a, b), c).to_json_dict()["bins"]
    right = merge(a, merge(b, c)).to_json_dict()["bins"]
    swapped = merge(merge(b, a), c).to_json_dict()["bins"]
    assert left == right == swapped


@hypothesis.given(events, st.integers(0, 59))
@hypothesis.settings(max_examples=350, deadline=None)
def test_partition_invariance(evs, cut):
    cut = min(cut, len(evs))
    whole = _db_from(evs)
    split = merge(_db_from(evs[:cut]), _db_from(evs[cut:]))
    assert whole.to_json_dict()["bins"] == split.to_json_dict()["bins"]


@hypothesis.given(events, st.tuples(st.sampled_from(["cdc0", "cdc1"]),
                                    st.integers(0, 2),
                                    st.sampled_from(["setup", "hold"]),
                                    st.integers(0, 1)))
@hypothesis.settings(max_examples=200, deadline=None)
def test_percent_monotone_under_record(evs, extra):
    pairs = [{"id": "cdc0", "width": 3, "suppressed": None},
             {"id": "cdc1", "width": 3, "suppressed": None}]
    db = _db_from(evs)
    before = report(db, pairs)["totals"]["bins_hit"]
    db.record(*extra)
    after = report(db, pairs)["totals"]["bins_hit"]
    assert after >= before


def test_report_percent_and_zero_lists():
    pairs = [{"id": "cdc0", "width": 1, "suppressed": None},
             {"id": "cdc1", "width": 1, "suppressed": None},
             {"id": "cdc2", "width": 1, "suppressed": "false_path"}]
    db = fresh(pairs=("cdc0", "cdc1", "cdc2"))
    for b, v in (("setup", 0), ("setup", 1), ("hold", 0), ("hold", 1)):
        db.record("cdc0", 0, b, v)
    rep = report(db, pairs)
    by_id = {p["id"]: p for p in rep["pairs"]}
    assert by_id["cdc0"]["percent"] == 100.0
    assert by_id["cdc1"]["percent"] == 0.0
    assert rep["zero_coverage"] == ["cdc1"]
    assert rep["suppressed"] == ["cdc2"]
    assert "cdc2" not in by_id  # suppressed pairs leave the denominator


def test_fresh_db_reports_all_zero():
    pairs = [{"id": "cdc0", "width": 2, "suppressed": None}]
    rep = report(fresh(), pairs)
    assert rep["pairs"][0]["percent"] == 0.0
    assert rep["zero_coverage"] == ["cdc0"]


def test_json_roundtrip_stable():
    db = fresh(pairs=("cdc0", "cdc1"))
    db.record("cdc1", 2, "hold", 1)
    db.record("cdc0", 0, "setup", 0)
    text = db.to_json()
    again = CoverageDb.from_json(text)
    assert again.to_json() == text
    assert json.loads(text)["bins"]["cdc1"]["2"]["hold1"] == 1
