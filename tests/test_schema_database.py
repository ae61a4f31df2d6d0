"""Unit tests for star schema metadata and the database catalog."""

import pytest

from repro.engine.column import Column
from repro.engine.database import Database
from repro.engine.schema import ForeignKey, StarSchema
from repro.engine.table import Table
from repro.errors import SchemaError


def make_star():
    fact = Table.from_dict(
        "fact", {"fk": [0, 1, 1, 2], "m": [1.0, 2.0, 3.0, 4.0]}
    )
    dim = Table.from_dict("dim", {"id": [0, 1, 2], "color": ["r", "g", "b"]})
    schema = StarSchema("fact", (ForeignKey("fk", "dim", "id"),))
    return Database([fact, dim], schema)


class TestStarSchema:
    def test_duplicate_dimension_rejected(self):
        with pytest.raises(SchemaError):
            StarSchema("f", (ForeignKey("a", "d", "k"), ForeignKey("b", "d", "k")))

    def test_fact_as_dimension_rejected(self):
        with pytest.raises(SchemaError):
            StarSchema("f", (ForeignKey("a", "f", "k"),))


class TestDatabase:
    def test_table_lookup(self):
        db = make_star()
        assert db.table("dim").n_rows == 3
        with pytest.raises(SchemaError):
            db.table("nope")

    def test_duplicate_table_rejected(self):
        t = Table.from_dict("t", {"a": [1]})
        with pytest.raises(SchemaError):
            Database([t, t])

    def test_fact_table_star(self):
        assert make_star().fact_table.name == "fact"

    def test_fact_table_single(self):
        db = Database([Table.from_dict("only", {"a": [1]})])
        assert db.fact_table.name == "only"

    def test_fact_table_ambiguous(self):
        db = Database(
            [Table.from_dict("a", {"x": [1]}), Table.from_dict("b", {"y": [1]})]
        )
        with pytest.raises(SchemaError):
            db.fact_table

    def test_validation_missing_fk_column(self):
        fact = Table.from_dict("fact", {"m": [1.0]})
        dim = Table.from_dict("dim", {"id": [0], "c": ["x"]})
        with pytest.raises(SchemaError):
            Database([fact, dim], StarSchema("fact", (ForeignKey("fk", "dim", "id"),)))

    def test_validation_duplicate_column_names(self):
        fact = Table.from_dict("fact", {"fk": [0], "c": ["x"]})
        dim = Table.from_dict("dim", {"id": [0], "c": ["y"]})
        with pytest.raises(SchemaError, match="globally unique"):
            Database([fact, dim], StarSchema("fact", (ForeignKey("fk", "dim", "id"),)))

    def test_total_bytes(self):
        assert make_star().total_bytes() > 0


class TestJoinedView:
    def test_joined_view_values(self):
        view = make_star().joined_view()
        assert view.column("color").to_list() == ["r", "g", "g", "b"]
        assert view.column("m").to_list() == [1.0, 2.0, 3.0, 4.0]

    def test_joined_view_excludes_dim_key(self):
        view = make_star().joined_view()
        assert not view.has_column("id")
        assert view.has_column("fk")

    def test_joined_view_name(self):
        assert make_star().joined_view("wide").name == "wide"
        assert make_star().joined_view().name == "fact_joined"

    def test_single_table_view_is_fact(self):
        db = Database([Table.from_dict("only", {"a": [1]})])
        assert db.joined_view().name == "only"

    def test_missing_dimension_key_raises(self):
        fact = Table.from_dict("fact", {"fk": [0, 9], "m": [1.0, 2.0]})
        dim = Table.from_dict("dim", {"id": [0, 1], "color": ["r", "g"]})
        db = Database([fact, dim], StarSchema("fact", (ForeignKey("fk", "dim", "id"),)))
        with pytest.raises(SchemaError, match="missing dimension keys"):
            db.joined_view()

    def test_duplicate_dimension_key_raises(self):
        fact = Table.from_dict("fact", {"fk": [0], "m": [1.0]})
        dim = Table.from_dict("dim", {"id": [0, 0], "color": ["r", "g"]})
        db = Database([fact, dim], StarSchema("fact", (ForeignKey("fk", "dim", "id"),)))
        with pytest.raises(SchemaError, match="duplicates"):
            db.joined_view()

    def test_tpch_view_integrity(self, tiny_tpch):
        view = tiny_tpch.joined_view()
        assert view.n_rows == tiny_tpch.fact_table.n_rows
        # Every dimension attribute is present in the wide view.
        for dim_col in ("p_brand", "s_nation", "o_custsegment"):
            assert view.has_column(dim_col)
