"""The ORM session: loading and hydration.

``Session.load_all(entity)`` issues ``SELECT *`` over the entity's
table and hydrates each row into an :class:`Entity` object.  Fetch
modes (paper Sec. 7.2):

* ``lazy`` — associations become proxy attributes that run their lookup
  query on first access;
* ``eager`` — associations are resolved during hydration, one indexed
  lookup per distinct key per session (Hibernate's default select
  fetching: still N+1, counted over distinct associated entities; the
  extra work is why the paper's eager curves are uniformly slower).

A session is a persistence context, as a Hibernate session is: an
association lookup it has already run is answered from the entities
that lookup hydrated, without SQL, while the target table is unchanged
(see :meth:`Session._resolve_association`).

Hydration statistics (``objects_hydrated``) let benchmarks report how
many entity objects each code version materialised — the quantity QBS
reduces by pushing work into the database.

Entities read like the POJOs of the paper's Hibernate code: each row
hydrates into an instance of a class built once per mapped type and
row shape (see :func:`_entity_class`), with one slot per column and per
association, so reading a loaded value is a plain attribute read.

Hydration works a result at a time.  Each run of rows of one shape goes
to its class's builder, generated code with one slot store per column
unrolled and no Python call per row (see :func:`_builder_factory`).  In
eager mode each association is then resolved once for the whole run:
one currency stamp, and a key repeated within the result costs one dict
probe.  A lazy read resolves through the same routine with one owner.
"""

from __future__ import annotations

import functools
from itertools import groupby
from operator import attrgetter
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

from repro.orm.mapping import Association, EntityType, MappingRegistry
from repro.sql.database import Database
from repro.tor.values import Record


class Entity:
    """A hydrated row: attribute access over columns and associations.

    Every entity is an instance of a per-type subclass whose slots hold
    the row's columns and the entity's associations.  A column shadows
    an association of the same name, and the attributes defined here
    (``record`` and the like) shadow both.
    """

    __slots__ = ("_session", "_data")

    #: association name -> its lookup, for associations with a slot of
    #: their own; set on each per-type subclass.
    _lookups: Dict[str, "_Lookup"] = {}

    def __getattr__(self, name: str) -> Any:
        # Reached only when the slot is empty: a lazy association not
        # read yet, or a name the entity does not have.  A lazy read
        # resolves as eager hydration does, with this entity the one
        # owner, and then reads the slot that filled.
        lookup = self._lookups.get(name)
        if lookup is None:
            raise AttributeError("%s has no column or association %r"
                                 % (type(self).__name__, name))
        self._session._resolve_association(lookup, (self,))
        return object.__getattribute__(self, name)

    def __setattr__(self, name: str, value: Any):
        raise AttributeError("entities are read-only in this reproduction")

    def __delattr__(self, name: str):
        raise AttributeError("entities are read-only in this reproduction")

    @property
    def record(self) -> Record:
        """The underlying row record (used by equivalence checks)."""
        return self._data

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, Entity):
            return self._data == other._data
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._data)

    def __repr__(self) -> str:
        return "%s(%r)" % (type(self).__name__, dict(self._data))


#: names an entity class cannot give a slot: the attributes of
#: ``Entity`` itself win over a column or association, as they always have.
_ENTITY_ATTRIBUTES = frozenset(dir(Entity))

_SET_SESSION = Entity._session.__set__
_SET_DATA = Entity._data.__set__
#: a row's field tuple, which picks its entity class
_FIELDS = attrgetter("_fields")


def _slot_name(name: str) -> bool:
    """Whether ``name`` can be a slot read back under that same name
    (a ``__private`` name would be mangled)."""
    return name.isidentifier() and not (
        name.startswith("__") and not name.endswith("__"))


def _record_field(name: str) -> property:
    """A field read from the row record, for a column name that cannot
    be a slot (``create_table`` accepts any string)."""
    return property(lambda entity: entity._data[name])


class _Lookup:
    """How one association of an entity class loads: the target type and
    the key lookup SQL, found on first use, found again after a
    registration, and shared by every entity of the class."""

    __slots__ = ("assoc", "registry", "target", "generation", "sql",
                 "store", "key", "many")

    def __init__(self, assoc: Association, registry: MappingRegistry):
        self.assoc = assoc
        self.registry = registry
        self.target: Optional[EntityType] = None
        #: the registry generation ``target`` was resolved under
        self.generation = -1
        self.sql = ""
        #: the slot's setter; None when a column shadows the association
        self.store: Optional[Callable[[Entity, Any], None]] = None
        #: reads the lookup key, the local column, off an entity;
        #: ``attrgetter`` would split a dotted column name.
        column = assoc.local_column
        self.key = attrgetter(column) if "." not in column \
            else (lambda entity: getattr(entity, column))
        self.many = assoc.many

    def resolve_target(self) -> EntityType:
        """Find the target type under the registry's current
        registrations.  Called again whenever the generation has moved:
        an entity loaded before a registration keeps its class, and
        with it this lookup."""
        target = self.registry.entity(self.assoc.target)
        self.sql = ("SELECT * FROM %s AS t0 WHERE t0.%s = :key"
                    % (target.table, self.assoc.remote_column))
        self.target = target
        self.generation = self.registry.generation
        return target


class _EntityClass(NamedTuple):
    """One entity class and what hydration needs to fill it."""

    cls: type
    #: the builder: hydrates a run of rows with this class's field
    #: tuple for a session
    build: Callable[[Iterable[Record], "Session"], List[Entity]]
    #: every association in declaration order, shadowed ones included
    #: (eager hydration resolves them all)
    lookups: Tuple[_Lookup, ...]


@functools.lru_cache(maxsize=256)
def _builder_factory(width: int, slotted: Tuple[int, ...]) -> Callable:
    """The compiled factory of builders for rows of ``width`` fields
    whose fields at the positions ``slotted`` have slots.  Called with a
    class and those slots' setters, it returns the class's builder: for
    each row of a run, one entity with the session, the row and one slot
    store per slotted field unrolled.

    It is generated source, as ``collections.namedtuple`` and
    ``dataclasses`` generate theirs.  Every name in it is positional
    (``v0`` is a row's first value, ``s0`` the setter of its slot), so
    no column name ever enters the source, and one compiled factory
    serves every class of that width and those slotted positions: a
    registry made per request compiles nothing after the first."""
    values = "".join("v%d, " % i for i in range(width))
    source = "\n".join(
        ["def factory(cls, %s):" % "".join("s%d, " % i for i in slotted),
         "    def build(rows, session):",
         "        out = []",
         "        for row in rows:",
         "            e = new(cls)",
         "            set_session(e, session)",
         "            set_data(e, row)",
         "            %s= row._values" % values if width else ""]
        + ["            s%d(e, v%d)" % (i, i) for i in slotted]
        + ["            out.append(e)",
           "        return out",
           "    return build"])
    namespace = {"new": object.__new__, "set_session": _SET_SESSION,
                 "set_data": _SET_DATA}
    exec(source, namespace)
    return namespace["factory"]


def _entity_class(registry: MappingRegistry, entity_type: EntityType,
                  fields: Tuple[str, ...]) -> _EntityClass:
    """The class rows of ``entity_type`` with these ``fields`` hydrate
    into, and its builder, made once per registry: one slot per field,
    then one per association whose name is not a field."""
    key = (entity_type.name, fields)
    built = registry.entity_classes.get(key)
    if built is not None:
        return built
    readable = [f for f in fields if f not in _ENTITY_ATTRIBUTES]
    columns = tuple(f for f in readable if _slot_name(f))
    lookups = [_Lookup(assoc, registry) for assoc in entity_type.associations]
    owned = [lookup for lookup in lookups
             if lookup.assoc.name not in fields
             and lookup.assoc.name not in _ENTITY_ATTRIBUTES]
    namespace = {f: _record_field(f) for f in readable if f not in columns}
    cls = type(entity_type.name, (Entity,), dict(
        namespace,
        __slots__=columns + tuple(lookup.assoc.name for lookup in owned),
        _lookups={lookup.assoc.name: lookup for lookup in owned}))
    for lookup in owned:
        lookup.store = getattr(cls, lookup.assoc.name).__set__
    slotted = tuple(i for i, f in enumerate(fields) if f in columns)
    build = _builder_factory(len(fields), slotted)(
        cls, *[getattr(cls, fields[i]).__set__ for i in slotted])
    built = registry.entity_classes[key] = _EntityClass(cls, build,
                                                        tuple(lookups))
    return built


class Session:
    """A unit of database access with a fixed association fetch mode."""

    def __init__(self, db: Database, registry: MappingRegistry,
                 fetch: str = "lazy"):
        if fetch not in ("lazy", "eager"):
            raise ValueError("fetch mode must be 'lazy' or 'eager'")
        self.db = db
        self.registry = registry
        self.fetch = fetch
        #: number of entity objects created — the hydration cost proxy.
        self.objects_hydrated = 0
        #: number of SQL statements issued.
        self.queries_issued = 0
        #: the persistence context: (lookup SQL, target entity name, key)
        #: -> ((target table, its data_version, registry generation),
        #: the entities that lookup hydrated).
        self._context: Dict[Tuple[str, str, Any],
                            Tuple[tuple, List[Entity]]] = {}

    # -- loading ------------------------------------------------------------

    def load_all(self, entity_name: str) -> List[Entity]:
        """``SELECT *`` over the entity's table, hydrated."""
        entity_type = self.registry.entity(entity_name)
        result = self.db.execute("SELECT * FROM %s" % entity_type.table)
        self.queries_issued += 1
        return self._hydrate(entity_type, result.rows)

    def query(self, sql: str, entity_name: Optional[str] = None,
              params: Optional[Dict[str, Any]] = None) -> List[Entity]:
        """Run arbitrary SQL, hydrating rows as ``entity_name`` if given.

        Entity-less single-column queries return bare scalars, matching
        Hibernate's ``List<Long>`` projections — application code
        membership tests (``id in manager_ids``) rely on this.
        """
        result = self.db.execute(sql, params)
        self.queries_issued += 1
        if entity_name is None:
            if len(result.columns) == 1:
                column = result.columns[0]
                return [row[column] for row in result.rows]
            return list(result.rows)
        entity_type = self.registry.entity(entity_name)
        return self._hydrate(entity_type, result.rows)

    def _hydrate(self, entity_type: EntityType, rows: List[Record],
                 shallow: bool = False) -> List[Entity]:
        """One entity per row, in row order.  Each run of rows with one
        field tuple goes to its class's builder; in eager mode, each
        association of the run's class is then resolved for the whole
        run (:meth:`_resolve_association`)."""
        self.objects_hydrated += len(rows)
        eager = self.fetch == "eager" and not shallow
        classes, name = self.registry.entity_classes, entity_type.name
        out: List[Entity] = []
        for fields, run in groupby(rows, _FIELDS):
            shape = classes.get((name, fields))
            if shape is None:
                shape = _entity_class(self.registry, entity_type, fields)
            entities = shape.build(run, self)
            if eager:
                for lookup in shape.lookups:
                    self._resolve_association(lookup, entities)
            out += entities
        return out

    # -- associations -----------------------------------------------------------

    def _resolve_association(self, lookup: _Lookup,
                             owners: Sequence[Entity]) -> None:
        """Resolve one association for each of ``owners`` by key lookup,
        through the persistence context, and fill each owner's slot for
        it (an association a column shadows has none).

        Eager hydration passes a run of owners, lazy loading one.  The
        currency stamp (the target table, its ``data_version`` and the
        registry generation) is taken once per call: resolving issues
        only SELECTs, and a SELECT moves no ``data_version``.  A key is
        then read off each owner and probed in a map local to the call,
        so a key repeated among the owners costs one dict probe.  A key
        new to the call is answered from the context while its entry's
        stamp is current (the statement cache's currency rule, with no
        registration since), and otherwise queried, hydrated and stored
        there.  Keys are thus looked up in first-seen order.  Owners that
        share a key share one entity, and each one-to-many owner gets a
        list of its own.  A key that cannot be hashed is looked up afresh
        every time, so it fails as the query does.

        Associated entities are hydrated *shallowly* (their own
        associations stay lazy) so that cyclic mappings — participant ->
        project -> creator -> ... — terminate, matching Hibernate's
        bounded eager-fetch depth.
        """
        generation = self.registry.generation
        target = lookup.target
        if lookup.generation != generation:
            target = lookup.resolve_target()
        table = self.db.catalog.table(target.table)
        current = (table, table.data_version, generation)
        sql, name, read_key = lookup.sql, target.name, lookup.key
        store, many, context = lookup.store, lookup.many, self._context
        #: key -> the entities its lookup hydrated
        resolved: Dict[Any, List[Entity]] = {}
        for owner in owners:
            key = read_key(owner)
            try:
                entities = resolved.get(key)
            except TypeError:
                entities = self._fetch(sql, target, key)
            else:
                if entities is None:
                    ident = (sql, name, key)
                    entry = context.get(ident)
                    if entry is not None and entry[0] == current:
                        entities = entry[1]
                    else:
                        entities = self._fetch(sql, target, key)
                        context[ident] = (current, entities)
                    resolved[key] = entities
            if store is not None:
                store(owner, list(entities) if many
                      else entities[0] if entities else None)

    def _fetch(self, sql: str, target: EntityType, key: Any) -> List[Entity]:
        """Run one association lookup and hydrate its rows shallowly."""
        result = self.db.execute(sql, {"key": key})
        self.queries_issued += 1
        return self._hydrate(target, result.rows, shallow=True)
