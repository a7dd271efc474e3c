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
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.orm.mapping import Association, EntityType, MappingRegistry
from repro.sql.database import Database
from repro.tor.values import Record, record_parts


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
        # read yet, or a name the entity does not have.
        lookup = self._lookups.get(name)
        if lookup is None:
            raise AttributeError("%s has no column or association %r"
                                 % (type(self).__name__, name))
        value = self._session._resolve_association(self, lookup)
        lookup.store(self, value)
        return value

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
    #: one setter per row field, in field order
    stores: Tuple[Callable[[Entity, Any], None], ...]
    #: every association in declaration order, shadowed ones included
    #: (eager hydration resolves them all)
    lookups: Tuple[_Lookup, ...]


def _skip(entity: Entity, value: Any) -> None:
    """The setter of a field that has no slot."""


def _entity_class(registry: MappingRegistry, entity_type: EntityType,
                  fields: Tuple[str, ...]) -> _EntityClass:
    """The class rows of ``entity_type`` with these ``fields`` hydrate
    into, built once per registry: one slot per field, then one per
    association whose name is not a field."""
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
    stores = tuple(getattr(cls, f).__set__ if f in columns else _skip
                   for f in fields)
    built = registry.entity_classes[key] = _EntityClass(cls, stores,
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
        self.objects_hydrated += len(rows)
        eager = self.fetch == "eager" and not shallow
        new, set_session, set_data = object.__new__, _SET_SESSION, _SET_DATA
        # The registry's classes are read here first: most calls hydrate
        # one association's row, of a shape already built.
        classes, name = self.registry.entity_classes, entity_type.name
        shape_fields: Optional[Tuple[str, ...]] = None
        out = []
        for row in rows:
            fields, values = record_parts(row)
            if fields != shape_fields:
                shape = classes.get((name, fields))
                if shape is None:
                    shape = _entity_class(self.registry, entity_type, fields)
                shape_fields, cls, stores = fields, shape.cls, shape.stores
                lookups = shape.lookups if eager else ()
            entity = new(cls)
            set_session(entity, self)
            set_data(entity, row)
            for store, value in zip(stores, values):
                store(entity, value)
            for lookup in lookups:
                value = self._resolve_association(entity, lookup)
                if lookup.store is not None:
                    lookup.store(entity, value)
            out.append(entity)
        return out

    # -- associations -----------------------------------------------------------

    def _resolve_association(self, entity: Entity, lookup: _Lookup):
        """Resolve one association by key lookup, through the persistence
        context.

        A lookup this session has already run is answered with the
        entities it hydrated then, without SQL, while the target table is
        the same object at the same ``data_version`` (the statement
        cache's currency rule) and no registration has run since.  Owners
        that share a key share one entity, and each one-to-many owner gets
        a list of its own.  A key that cannot be hashed is looked up
        afresh every time, so it fails as the query does.

        Associated entities are hydrated *shallowly* (their own
        associations stay lazy) so that cyclic mappings — participant ->
        project -> creator -> ... — terminate, matching Hibernate's
        bounded eager-fetch depth.
        """
        generation = self.registry.generation
        target = lookup.target
        if lookup.generation != generation:
            target = lookup.resolve_target()
        key = lookup.key(entity)
        table = self.db.catalog.table(target.table)
        current = (table, table.data_version, generation)
        ident = (lookup.sql, target.name, key)
        try:
            entry = self._context.get(ident)
        except TypeError:
            ident = entry = None
        if entry is not None and entry[0] == current:
            entities = entry[1]
        else:
            result = self.db.execute(lookup.sql, {"key": key})
            self.queries_issued += 1
            entities = self._hydrate(target, result.rows, shallow=True)
            if ident is not None:
                self._context[ident] = (current, entities)
        if lookup.many:
            return list(entities)
        return entities[0] if entities else None
