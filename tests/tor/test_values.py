"""Unit tests for TOR runtime values: records, pairs, paths."""

import copy
import pickle

import pytest

from repro.tor.values import (
    PairRow,
    Record,
    as_relation,
    field_getter,
    make_record,
    resolve_path,
    row_fields,
    row_scalar,
)


class TestRecord:
    def test_field_access_by_key_and_attribute(self):
        r = Record(id=1, name="alice")
        assert r["id"] == 1
        assert r.name == "alice"

    def test_fields_preserve_declaration_order(self):
        r = Record(b=2, a=1)
        assert r.fields == ("b", "a")

    def test_equality_is_structural(self):
        assert Record(id=1) == Record(id=1)
        assert Record(id=1) != Record(id=2)
        assert Record(id=1) != Record(xd=1)

    def test_hashable_and_usable_in_sets(self):
        assert len({Record(id=1), Record(id=1), Record(id=2)}) == 2

    def test_immutable(self):
        r = Record(id=1)
        with pytest.raises(AttributeError):
            r.id = 2

    def test_missing_field_raises_keyerror(self):
        with pytest.raises(KeyError):
            Record(id=1)["nope"]

    def test_duplicate_fields_rejected(self):
        with pytest.raises(ValueError):
            Record({"a": 1}, a=2)

    def test_project_renames_and_replicates(self):
        r = Record(id=7, name="x")
        p = r.project([("id", "a"), ("id", "b")])
        assert p == Record(a=7, b=7)

    def test_concat_disjoint_fields(self):
        c = Record(a=1).concat(Record(b=2))
        assert c == Record(a=1, b=2)

    def test_concat_clash_requires_prefixes(self):
        with pytest.raises(ValueError):
            Record(a=1).concat(Record(a=2))
        c = Record(a=1).concat(Record(a=2), prefix_other="r_")
        assert c == Record(a=1, r_a=2)

    def test_mapping_protocol(self):
        r = Record(x=1, y=2)
        assert dict(r) == {"x": 1, "y": 2}
        assert len(r) == 2


class TestPairRow:
    def test_pair_equality_and_hash(self):
        a = PairRow(Record(id=1), Record(id=2))
        b = PairRow(Record(id=1), Record(id=2))
        assert a == b
        assert hash(a) == hash(b)

    def test_pair_immutable(self):
        p = PairRow(1, 2)
        with pytest.raises(AttributeError):
            p.left = 3

    @pytest.mark.parametrize("hashed_first", [False, True])
    @pytest.mark.parametrize("clone", [
        lambda pair: pickle.loads(pickle.dumps(pair)), copy.deepcopy],
        ids=["pickle", "deepcopy"])
    def test_nested_pairs_round_trip(self, clone, hashed_first):
        """Pairs rebuild through the constructor, before and after their
        hash is computed and kept; the kept hash is not carried along,
        since string hashes differ from one process to the next."""
        pair = PairRow(PairRow(Record(a=1), Record(b="x")), Record(c=3))
        if hashed_first:
            hash(pair)
        twin = clone(pair)
        assert twin == pair and twin is not pair
        assert hash(twin) == hash(pair)
        assert twin.left.right == Record(b="x")
        assert pair.__reduce__() == (PairRow, (pair.left, pair.right))

    def test_make_record_matches_the_constructor(self):
        record = make_record(("b", "a"), [2, 1])
        assert record == Record(b=2, a=1) and record.fields == ("b", "a")
        assert hash(record) == hash(Record(b=2, a=1))


class TestResolvePath:
    def test_plain_field(self):
        assert resolve_path(Record(id=3), "id") == 3

    def test_pair_sides(self):
        p = PairRow(Record(id=1), Record(id=2))
        assert resolve_path(p, "left.id") == 1
        assert resolve_path(p, "right.id") == 2

    def test_whole_side(self):
        p = PairRow(Record(id=1), Record(id=2))
        assert resolve_path(p, "left") == Record(id=1)

    def test_nested_pairs(self):
        p = PairRow(PairRow(Record(a=1), Record(b=2)), Record(c=3))
        assert resolve_path(p, "left.right.b") == 2
        assert resolve_path(p, "right.c") == 3

    def test_bad_path_raises(self):
        with pytest.raises(KeyError):
            resolve_path(Record(a=1), "b")
        with pytest.raises(KeyError):
            resolve_path(PairRow(Record(a=1), Record(b=2)), "middle.a")


def _resolution(resolve, row, path):
    try:
        return ("ok", resolve(row, path))
    except KeyError as exc:
        return ("raise", str(exc))


class TestFieldGetter:
    ROWS = [
        Record(id=1, left=2),
        PairRow(Record(id=1), Record(id=2)),
        PairRow(PairRow(Record(a=1), Record(b=2)), Record(c=3)),
        PairRow(Record(id=1), 7),
        Record(x=PairRow(Record(id=5), Record(id=6))),
        7,
        None,
    ]
    PATHS = ["id", "left", "right", "left.id", "right.id", "left.right.b",
             "left.left", "right.c", "middle.a", "id.x", "x.right.id",
             "left.left.a.b", "right.right"]

    @pytest.mark.parametrize("path", PATHS)
    def test_matches_resolve_path(self, path):
        get = field_getter(path)
        for row in self.ROWS:
            assert _resolution(lambda r, p: get(r), row, path) == \
                _resolution(resolve_path, row, path), (row, path)


class TestRowHelpers:
    def test_row_fields_record(self):
        assert row_fields(Record(a=1, b=2)) == ("a", "b")

    def test_row_fields_pair(self):
        p = PairRow(Record(a=1), Record(b=2))
        assert row_fields(p) == ("left.a", "right.b")

    def test_row_scalar_accepts_bare_and_single_field(self):
        assert row_scalar(5) == 5
        assert row_scalar(Record(v=5)) == 5

    def test_row_scalar_rejects_wide_records(self):
        with pytest.raises(ValueError):
            row_scalar(Record(a=1, b=2))

    def test_as_relation_coerces_dicts(self):
        rel = as_relation([{"id": 1}, Record(id=2), 7])
        assert rel == (Record(id=1), Record(id=2), 7)
