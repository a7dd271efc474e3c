"""Unit tests for the ORM session: hydration, lazy/eager associations."""

import pytest

from repro.core.transform import entity_rows
from repro.orm import Association, Entity, EntityType, Session
from repro.orm.mapping import MappingRegistry
from repro.sql.database import Database
from repro.tor.values import Record


@pytest.fixture
def setup():
    db = Database()
    db.create_table("users", ("id", "name", "role_id"))
    db.create_table("roles", ("role_id", "role_name"))
    db.create_index("roles", "role_id")
    db.insert_many("users", [
        {"id": 1, "name": "alice", "role_id": 10},
        {"id": 2, "name": "bob", "role_id": 20},
    ])
    db.insert_many("roles", [
        {"role_id": 10, "role_name": "admin"},
        {"role_id": 20, "role_name": "user"},
    ])
    registry = MappingRegistry()
    registry.register(EntityType(
        "User", "users", ("id", "name", "role_id"),
        associations=(Association("role", "Role", "role_id", "role_id"),)))
    registry.register(EntityType("Role", "roles",
                                 ("role_id", "role_name")))
    return db, registry


class TestLazyFetching:
    def test_load_all_hydrates_every_row(self, setup):
        db, registry = setup
        session = Session(db, registry, fetch="lazy")
        users = session.load_all("User")
        assert [u.name for u in users] == ["alice", "bob"]
        assert session.objects_hydrated == 2
        assert session.queries_issued == 1  # no association queries yet

    def test_association_resolved_on_first_access(self, setup):
        db, registry = setup
        session = Session(db, registry, fetch="lazy")
        users = session.load_all("User")
        assert session.queries_issued == 1
        assert users[0].role.role_name == "admin"
        assert session.queries_issued == 2
        # Cached on second access.
        assert users[0].role.role_name == "admin"
        assert session.queries_issued == 2


class TestEagerFetching:
    def test_associations_loaded_at_hydration(self, setup):
        db, registry = setup
        session = Session(db, registry, fetch="eager")
        users = session.load_all("User")
        queries_after_load = session.queries_issued
        assert queries_after_load == 1 + len(users)  # N+1 pattern
        assert users[1].role.role_name == "user"
        assert session.queries_issued == queries_after_load

    def test_eager_hydrates_more_objects_than_lazy(self, setup):
        db, registry = setup
        lazy = Session(db, registry, fetch="lazy")
        lazy.load_all("User")
        eager = Session(db, registry, fetch="eager")
        eager.load_all("User")
        assert eager.objects_hydrated > lazy.objects_hydrated


class TestEntity:
    def test_attribute_access_and_equality(self, setup):
        db, registry = setup
        session = Session(db, registry)
        users = session.load_all("User")
        assert users[0].id == 1
        assert users[0] == Session(db, registry).load_all("User")[0]
        with pytest.raises(AttributeError):
            users[0].nope
        with pytest.raises(AttributeError):
            users[0].id = 5

    def test_scalar_query_unwraps_single_column(self, setup):
        db, registry = setup
        session = Session(db, registry)
        ids = session.query("SELECT id FROM users AS t0 ORDER BY t0._rowid")
        assert ids == [1, 2]

    def test_invalid_fetch_mode(self, setup):
        db, registry = setup
        with pytest.raises(ValueError):
            Session(db, registry, fetch="psychic")


class TestEntityContract:
    """Entities read like plain objects: loaded values sit in slots."""

    @pytest.fixture
    def counted_getattr(self, monkeypatch):
        calls = []
        original = Entity.__getattr__

        def counting(entity, name):
            calls.append(name)
            return original(entity, name)

        monkeypatch.setattr(Entity, "__getattr__", counting)
        return calls

    def test_loaded_values_read_without_getattr(self, setup,
                                                counted_getattr):
        db, registry = setup
        session = Session(db, registry, fetch="eager")
        users = session.load_all("User")
        queries = session.queries_issued
        seen = [(u.id, u.name, u.role_id, u.role.role_id, u.role.role_name)
                for u in users]
        assert seen == [(1, "alice", 10, 10, "admin"),
                        (2, "bob", 20, 20, "user")]
        assert counted_getattr == []
        assert session.queries_issued == queries

    def test_lazy_association_queries_once(self, setup, counted_getattr):
        db, registry = setup
        session = Session(db, registry, fetch="lazy")
        user = session.load_all("User")[0]
        assert session.queries_issued == 1
        role = user.role
        assert session.queries_issued == 2
        assert counted_getattr == ["role"]
        assert user.role is role
        assert session.queries_issued == 2
        assert counted_getattr == ["role"]

    @pytest.mark.parametrize("fetch", ["lazy", "eager"])
    def test_column_shadows_association_of_same_name(self, fetch):
        db = Database()
        db.create_table("users", ("id", "role_id", "record"))
        db.create_table("roles", ("role_id", "role_name"))
        db.insert("users", {"id": 1, "role_id": 10, "record": "r"})
        db.insert("roles", {"role_id": 10, "role_name": "admin"})
        registry = MappingRegistry()
        registry.register(EntityType(
            "User", "users", ("id", "role_id", "record"),
            associations=(
                Association("role_id", "Role", "role_id", "role_id"),
                Association("role", "Role", "role_id", "role_id"))))
        registry.register(EntityType("Role", "roles",
                                     ("role_id", "role_name")))
        session = Session(db, registry, fetch=fetch)
        (user,) = session.load_all("User")
        assert user.role_id == 10
        assert user.role.role_name == "admin"
        # Entity's own attributes win over a column, as they always have.
        assert user.record == Record(id=1, role_id=10, record="r")
        # Eager loading still resolves the shadowed association, so the
        # query and hydration counts are those of every association.
        expected = 3 if fetch == "eager" else 2
        assert session.queries_issued == expected
        assert session.objects_hydrated == expected

    def test_any_column_name_reads(self):
        db = Database()
        db.create_table("odd", ("id", "a b", "__x", "class"))
        db.insert("odd", {"id": 1, "a b": 2, "__x": 3, "class": 4})
        registry = MappingRegistry()
        registry.register(EntityType("Odd", "odd",
                                     ("id", "a b", "__x", "class")))
        (odd,) = Session(db, registry).load_all("Odd")
        assert [getattr(odd, name) for name in ("id", "a b", "__x", "class")] \
            == [1, 2, 3, 4]

    @pytest.mark.parametrize("fetch", ["lazy", "eager"])
    def test_dotted_key_column_resolves(self, fetch):
        """An association's key is read as ``getattr`` reads it, so a
        local column whose name holds a dot is one name, not a path."""
        db = Database()
        db.create_table("users", ("id", "role.id"))
        db.create_table("roles", ("role_id", "role_name"))
        db.create_index("roles", "role_id")
        db.insert("users", {"id": 1, "role.id": 10})
        db.insert("roles", {"role_id": 10, "role_name": "admin"})
        registry = MappingRegistry()
        registry.register(EntityType(
            "User", "users", ("id", "role.id"),
            associations=(Association("role", "Role", "role.id",
                                      "role_id"),)))
        registry.register(EntityType("Role", "roles",
                                     ("role_id", "role_name")))
        (user,) = Session(db, registry, fetch=fetch).load_all("User")
        assert user.role.role_name == "admin"

    def test_entities_are_read_only(self, setup):
        db, registry = setup
        for fetch in ("lazy", "eager"):
            user = Session(db, registry, fetch=fetch).load_all("User")[0]
            for name in ("id", "role", "nope"):
                with pytest.raises(AttributeError):
                    setattr(user, name, 5)
                with pytest.raises(AttributeError):
                    delattr(user, name)
            assert user.id == 1 and user.role.role_name == "admin"

    @pytest.mark.parametrize("fetch", ["lazy", "eager"])
    def test_narrower_select_list_hydrates(self, setup, fetch):
        db, registry = setup
        session = Session(db, registry, fetch=fetch)
        users = session.query(
            "SELECT t0.role_id, t0.id FROM users AS t0 ORDER BY t0._rowid",
            "User")
        assert [(u.id, u.role_id) for u in users] == [(1, 10), (2, 20)]
        assert [u.role.role_name for u in users] == ["admin", "user"]
        with pytest.raises(AttributeError):
            users[0].name
        assert users[0].record == Record(role_id=10, id=1)
        # Full rows of the same type still read every column.
        full = session.load_all("User")[0]
        assert (full.id, full.name, full.role_id) == (1, "alice", 10)

    def test_each_row_hydrates_by_its_own_fields(self, setup):
        db, registry = setup
        session = Session(db, registry)
        rows = [Record(id=1, name="alice", role_id=10),
                Record(role_id=20, id=2),
                Record(name="carol", id=3, role_id=10)]
        users = session._hydrate(registry.entity("User"), rows)
        assert [u.id for u in users] == [1, 2, 3]
        assert [u.role_id for u in users] == [10, 20, 10]
        assert (users[0].name, users[2].name) == ("alice", "carol")

    @pytest.mark.parametrize("fetch", ["lazy", "eager"])
    def test_registration_between_loads_yields_the_new_class(self, setup,
                                                             fetch):
        """Hydration reads the registry's classes directly, so a
        registration, which drops every class, takes effect on the
        next association lookup."""
        db, registry = setup
        session = Session(db, registry, fetch=fetch)
        alice, bob = session.load_all("User")
        before = type(alice.role)
        registry.register(EntityType("Role", "roles",
                                     ("role_id", "role_name")))
        # Bob's association is the one that just hydrated Alice's role.
        later = bob.role if fetch == "lazy" else \
            session.load_all("User")[1].role
        assert later.role_name == "user"
        assert type(later) is not before
        assert type(later) is registry.entity_classes[
            ("Role", ("role_id", "role_name"))].cls
        again = session.load_all("User")[0].role
        assert type(again) is type(later)

    def test_identity_and_rendering_are_unchanged(self, setup):
        db, registry = setup
        users = Session(db, registry, fetch="eager").load_all("User")
        again = Session(db, registry, fetch="lazy").load_all("User")
        alice = users[0]
        assert isinstance(alice, Entity)
        assert alice.record == Record(id=1, name="alice", role_id=10)
        assert alice == again[0] and hash(alice) == hash(again[0])
        assert hash(alice) == hash(alice.record)
        assert alice != users[1]
        assert alice.__eq__(alice.record) is NotImplemented
        assert alice != alice.role
        assert repr(alice) == \
            "User({'id': 1, 'name': 'alice', 'role_id': 10})"
        assert repr(alice.role) == "Role({'role_id': 10, 'role_name': 'admin'})"
        assert entity_rows(users) == (alice.record, users[1].record)
        assert entity_rows(set(users)) == tuple(
            sorted((u.record for u in users), key=repr))
