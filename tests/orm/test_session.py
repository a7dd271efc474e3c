"""Unit tests for the ORM session: hydration, lazy/eager associations."""

import pytest
from hypothesis import given, settings, strategies as st

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
        # Eager loading still resolves the shadowed association, but both
        # associations look up Role by the same key: the persistence
        # context answers the second, so one query and one Role serve both.
        assert session.queries_issued == 2
        assert session.objects_hydrated == 2

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

    @pytest.mark.parametrize("fetch", ["lazy", "eager"])
    def test_columns_named_like_the_builders_names_read_back(self, fetch):
        """The builder's source names nothing after a column, so columns
        named like its locals or like keywords read back, keys
        included."""
        names = ("e", "row", "values", "session", "out", "v0", "s0", "cls",
                 "class")
        db = Database()
        db.create_table("odd", names)
        db.create_table("kin", ("out", "v0"))
        db.create_index("kin", "out")
        db.insert_many("odd", [{name: "%s%d" % (name, i) for name in names}
                               for i in range(2)])
        db.insert_many("kin", [{"out": "s0%d" % i, "v0": i}
                               for i in range(2)])
        registry = MappingRegistry()
        registry.register(EntityType(
            "Odd", "odd", names,
            associations=(Association("kin", "Kin", "s0", "out"),)))
        registry.register(EntityType("Kin", "kin", ("out", "v0")))
        session = Session(db, registry, fetch=fetch)
        odds = session.load_all("Odd")
        assert [[getattr(odd, name) for name in names] for odd in odds] \
            == [["%s%d" % (name, i) for name in names] for i in range(2)]
        assert [(odd.kin.out, odd.kin.v0) for odd in odds] \
            == [("s00", 0), ("s01", 1)]
        assert session.queries_issued == 3

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

    def test_eager_hydration_resolves_each_run(self, team, counted_getattr):
        """An eager ``_hydrate`` over rows of mixed shapes hands each run
        of one shape to its class's builder and resolves the run's
        associations: every association slot is filled, and the queries
        and entities match resolving one row at a time."""
        db, registry = team
        rows = [Record(id=1, name="alice", role_id=10),
                Record(id=3, name="carol", role_id=10),
                Record(role_id=20, id=2),
                Record(role_id=10, id=4),
                Record(id=5, name="erin", role_id=20)]
        user = registry.entity("User")
        by_run = Session(db, registry, fetch="eager")
        users = by_run._hydrate(user, rows)
        by_row = Session(db, registry, fetch="eager")
        singles = [by_row._hydrate(user, [row])[0] for row in rows]
        # One lookup per role and association; the five rows, two roles
        # and three colleagues.
        assert (by_run.queries_issued, by_run.objects_hydrated) \
            == (by_row.queries_issued, by_row.objects_hydrated) == (4, 10)
        assert [type(u) for u in users] == [type(u) for u in singles]
        assert len({type(u) for u in users}) == 2
        seen = [(u.record, u.role.record, entity_rows(u.colleagues))
                for u in users]
        assert seen == [(u.record, u.role.record, entity_rows(u.colleagues))
                        for u in singles]
        assert counted_getattr == []
        assert users[0].role is users[1].role is users[3].role
        assert users[2].role is users[4].role

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

    def test_lookup_made_before_a_registration_hydrates_the_new_type(
            self, setup):
        """An entity loaded before a registration keeps its class and
        that class's lookups; a lazy read through such a lookup must
        hydrate the re-registered target, or the registry caches a class
        built from the old type under the current name."""
        db, registry = setup
        session = Session(db, registry, fetch="lazy")
        alice, bob = session.load_all("User")
        assert alice.role.role_name == "admin"
        registry.register(EntityType(
            "Role", "roles", ("role_id", "role_name"),
            associations=(Association("users", "User", "role_id",
                                      "role_id", many=True),)))
        assert bob.role.role_name == "user"
        (admin,) = Session(db, registry).query(
            "SELECT * FROM roles AS t0 WHERE t0.role_id = 10", "Role")
        assert [user.name for user in admin.users] == ["alice"]
        assert [user.name for user in bob.role.users] == ["bob"]

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


# -- the persistence context ---------------------------------------------------


@pytest.fixture
def team():
    """Alice and Carol share role 10; each user also has every user of
    the same role as colleagues (a one-to-many association)."""
    db = Database()
    db.create_table("users", ("id", "name", "role_id"))
    db.create_table("roles", ("role_id", "role_name"))
    db.create_index("roles", "role_id")
    db.insert_many("users", [
        {"id": 1, "name": "alice", "role_id": 10},
        {"id": 2, "name": "bob", "role_id": 20},
        {"id": 3, "name": "carol", "role_id": 10},
    ])
    db.insert_many("roles", [
        {"role_id": 10, "role_name": "admin"},
        {"role_id": 20, "role_name": "user"},
    ])
    registry = MappingRegistry()
    registry.register(EntityType(
        "User", "users", ("id", "name", "role_id"),
        associations=(
            Association("role", "Role", "role_id", "role_id"),
            Association("colleagues", "User", "role_id", "role_id",
                        many=True))))
    registry.register(EntityType("Role", "roles", ("role_id", "role_name")))
    return db, registry


def _names(users):
    return [user.name for user in users]


class TestPersistenceContext:
    """A session runs each association lookup once per key."""

    @pytest.mark.parametrize("fetch", ["lazy", "eager"])
    def test_owners_sharing_a_key_share_one_entity(self, team, fetch):
        db, registry = team
        session = Session(db, registry, fetch=fetch)
        alice, bob, carol = session.load_all("User")
        assert alice.role is carol.role
        assert alice.role is not bob.role
        assert (alice.role.role_name, bob.role.role_name) == ("admin", "user")
        if fetch == "lazy":
            # The load, then one lookup per distinct role.
            assert session.queries_issued == 3
            assert session.objects_hydrated == 5
        else:
            # Colleagues too: one lookup per distinct role and association.
            assert session.queries_issued == 5
            assert session.objects_hydrated == 3 + 2 + 3
        queries = session.queries_issued
        assert _names(carol.colleagues) == ["alice", "carol"]
        assert [a is b for a, b in zip(alice.colleagues, carol.colleagues)] \
            == [True, True]
        assert session.queries_issued == queries + (fetch == "lazy")

    @pytest.mark.parametrize("fetch", ["lazy", "eager"])
    def test_one_to_many_hit_is_a_list_of_its_own(self, team, fetch):
        db, registry = team
        session = Session(db, registry, fetch=fetch)
        alice, _, carol = session.load_all("User")
        mates = alice.colleagues
        mates.append(carol)
        mates.reverse()
        assert _names(carol.colleagues) == ["alice", "carol"]
        assert carol.colleagues is not mates
        assert _names(session.load_all("User")[0].colleagues) \
            == ["alice", "carol"]

    @pytest.mark.parametrize("change", ["insert", "create_index", "analyze"])
    def test_a_change_to_the_target_table_queries_again(self, team, change):
        db, registry = team
        session = Session(db, registry, fetch="lazy")
        alice, _, carol = session.load_all("User")
        assert _names(alice.colleagues) == ["alice", "carol"]
        assert session.queries_issued == 2
        if change == "insert":
            db.insert("users", {"id": 4, "name": "dave", "role_id": 10})
        elif change == "create_index":
            db.create_index("users", "name")
        else:
            db.analyze("users")
        mates = carol.colleagues
        assert session.queries_issued == 3
        expected = ["alice", "carol"] + (["dave"] if change == "insert"
                                         else [])
        assert _names(mates) == expected
        assert mates[0] is not alice.colleagues[0]

    @pytest.mark.parametrize("fetch", ["lazy", "eager"])
    def test_two_types_on_one_table_keep_their_own_entities(self, team,
                                                            fetch):
        db, registry = team
        registry.register(EntityType("Badge", "roles",
                                     ("role_id", "role_name")))
        registry.register(EntityType(
            "Member", "users", ("id", "name", "role_id"),
            associations=(Association("role", "Role", "role_id", "role_id"),
                          Association("badge", "Badge", "role_id",
                                      "role_id"))))
        session = Session(db, registry, fetch=fetch)
        alice = session.load_all("Member")[0]
        assert (type(alice.role).__name__, type(alice.badge).__name__) \
            == ("Role", "Badge")
        assert alice.role.record == alice.badge.record

    def test_a_change_to_another_table_keeps_the_entry(self, team):
        db, registry = team
        session = Session(db, registry, fetch="lazy")
        alice, _, carol = session.load_all("User")
        role = alice.role
        db.insert("users", {"id": 4, "name": "dave", "role_id": 10})
        assert carol.role is role
        assert session.queries_issued == 2

    def test_a_table_dropped_and_recreated_queries_again(self, team):
        db, registry = team
        session = Session(db, registry, fetch="lazy")
        alice, _, carol = session.load_all("User")
        assert alice.role.role_name == "admin"
        db.catalog.drop_table("roles")
        db.create_table("roles", ("role_id", "role_name"))
        db.insert("roles", {"role_id": 10, "role_name": "root"})
        assert carol.role.role_name == "root"
        assert session.queries_issued == 3

    @pytest.mark.parametrize("indexed", [True, False])
    @pytest.mark.parametrize("fetch", ["lazy", "eager"])
    def test_an_unhashable_key_queries_every_time(self, team, fetch,
                                                 indexed):
        """A key read off a one-to-many association is a list: with an
        index on the target column the lookup raises, as the index's
        probe does; without one it finds nothing, query after query."""
        db, registry = team
        if indexed:
            db.create_index("users", "role_id")
        registry.register(EntityType(
            "Pair", "users", ("id", "name", "role_id"),
            associations=(
                Association("colleagues", "User", "role_id", "role_id",
                            many=True),
                Association("odd", "User", "colleagues", "role_id"))))
        session = Session(db, registry, fetch=fetch)
        if indexed:
            with pytest.raises(TypeError, match="unhashable type: 'list'"):
                session.load_all("Pair")[0].odd
            return
        pairs = session.load_all("Pair")
        loaded = session.queries_issued
        assert [pair.odd for pair in pairs] == [None, None, None]
        if fetch == "lazy":
            # The load, two colleague lookups, and one query per read.
            assert session.queries_issued == loaded + 2 + 3
        else:
            assert loaded == 1 + 2 + 3

    def test_an_eager_load_that_raises_leaves_a_sound_context(self, team):
        """The indexed probe of an unhashable key raises part-way through
        an eager load.  Lookups the load completed stay in the context,
        and later loads still read what fresh queries return."""
        db, registry = team
        db.create_index("users", "role_id")
        registry.register(EntityType(
            "Pair", "users", ("id", "name", "role_id"),
            associations=(
                Association("colleagues", "User", "role_id", "role_id",
                            many=True),
                Association("odd", "User", "colleagues", "role_id"))))
        session = Session(db, registry, fetch="eager")
        with pytest.raises(TypeError, match="unhashable type: 'list'"):
            session.load_all("Pair")
        # The load and both colleague lookups: association-major order
        # resolves them before ``odd``, whose probe raised uncounted.
        assert session.queries_issued == 1 + 2
        users = session.load_all("User")
        # The load and one lookup per role; colleagues come from the
        # context the failed load filled.
        assert session.queries_issued == 3 + 1 + 2
        sql = "SELECT * FROM %s AS t0 WHERE t0.role_id = :key"
        for user in users:
            assert user.role.record == \
                db.execute(sql % "roles", {"key": user.role_id}).rows[0]
            assert entity_rows(user.colleagues) == tuple(
                db.execute(sql % "users", {"key": user.role_id}).rows)
        alice, _, carol = users
        assert alice.role is carol.role
        assert [a is b for a, b in zip(alice.colleagues, carol.colleagues)] \
            == [True, True]

    @pytest.mark.parametrize("indexed", [True, False])
    @pytest.mark.parametrize("fetch", ["lazy", "eager"])
    def test_equal_keys_of_other_types_read_as_a_fresh_query(self, fetch,
                                                             indexed):
        db = Database()
        db.create_table("owners", ("id", "ref"))
        db.create_table("targets", ("k", "v"))
        db.insert_many("owners", [{"id": i, "ref": ref}
                                  for i, ref in enumerate((1, 1.0, True))])
        db.insert_many("targets", [{"k": 1, "v": "int"},
                                   {"k": 1.0, "v": "float"},
                                   {"k": True, "v": "bool"},
                                   {"k": 2, "v": "two"}])
        if indexed:
            db.create_index("targets", "k")
        registry = MappingRegistry()
        registry.register(EntityType(
            "Owner", "owners", ("id", "ref"),
            associations=(Association("first", "Target", "ref", "k"),
                          Association("every", "Target", "ref", "k",
                                      many=True))))
        registry.register(EntityType("Target", "targets", ("k", "v")))
        session = Session(db, registry, fetch=fetch)
        sql = "SELECT * FROM targets AS t0 WHERE t0.k = :key"
        for owner in session.load_all("Owner"):
            fresh = db.execute(sql, {"key": owner.ref}).rows
            assert entity_rows(owner.every) == tuple(fresh)
            assert owner.first.record == fresh[0]


#: key values with duplicates and NULL, of one type, so that two keys
#: are the same key exactly when they are equal.
_keys = st.one_of(st.none(), st.integers(min_value=0, max_value=3))


def _assert_shared_within_result(owners, associations):
    """Owners of one result that share a key share one entity: the
    same object for a many-to-one, the same elements in lists of their
    own for a one-to-many."""
    for assoc in associations:
        first = {}
        for owner in owners:
            key = getattr(owner, assoc.local_column)
            value = getattr(owner, assoc.name)
            if key not in first:
                first[key] = value
            elif assoc.many:
                assert value is not first[key]
                assert [a is b for a, b in zip(value, first[key])] \
                    == [True] * len(value)
            else:
                assert value is first[key]


@settings(max_examples=60, deadline=None)
@given(owners=st.lists(_keys, max_size=8),
       targets=st.lists(st.tuples(_keys, _keys), max_size=8),
       indexed=st.booleans(),
       fetch=st.sampled_from(["lazy", "eager"]),
       loads=st.integers(min_value=1, max_value=3))
def test_context_answers_what_a_fresh_query_answers(owners, targets, indexed,
                                                    fetch, loads):
    """Over random tables, every association reads what a fresh query of
    its lookup SQL returns, owners of one result that share a key share
    one entity, and the session issues one query per load and one per
    distinct (SQL, key) pair.  Each load reads the owners twice: every
    column, and a narrower select list in another order, which hydrates
    into another class with lookups of its own."""
    db = Database()
    db.create_table("owners", ("id", "ref", "pad"))
    db.create_table("targets", ("a", "b"))
    db.insert_many("owners", [{"id": i, "ref": ref, "pad": -i}
                              for i, ref in enumerate(owners)])
    db.insert_many("targets", [{"a": a, "b": b} for a, b in targets])
    if indexed:
        db.create_index("targets", "a")
    registry = MappingRegistry()
    associations = (Association("one_a", "Target", "ref", "a"),
                    Association("many_a", "Target", "ref", "a", many=True),
                    Association("one_b", "Target", "ref", "b"),
                    Association("many_b", "Target", "id", "b", many=True))
    registry.register(EntityType("Owner", "owners", ("id", "ref", "pad"),
                                 associations=associations))
    registry.register(EntityType("Target", "targets", ("a", "b")))
    session = Session(db, registry, fetch=fetch)
    pairs = set()
    for _ in range(loads):
        for result in (session.load_all("Owner"),
                       session.query("SELECT t0.ref, t0.id FROM owners AS t0",
                                     "Owner")):
            for owner in result:
                for assoc in associations:
                    sql = ("SELECT * FROM targets AS t0 WHERE t0.%s = :key"
                           % assoc.remote_column)
                    key = getattr(owner, assoc.local_column)
                    pairs.add((sql, key))
                    fresh = tuple(db.execute(sql, {"key": key}).rows)
                    value = getattr(owner, assoc.name)
                    if assoc.many:
                        assert entity_rows(value) == fresh
                    else:
                        assert (value.record if value is not None
                                else None) == (fresh[0] if fresh else None)
            _assert_shared_within_result(result, associations)
    assert session.queries_issued == 2 * loads + len(pairs)
