"""Runtime values for the theory of ordered relations.

The theory operates on three kinds of values (paper Sec. 3.1):

* **scalars** — booleans, numbers and strings;
* **records** — immutable collections of named fields holding scalars;
* **ordered relations** — finite lists of records (or of bare scalars,
  which we treat as single-column rows; the aggregate axioms in
  Appendix C are written over such single-value rows).

Relations are represented as plain Python tuples so that values are
hashable and can be used as dictionary keys inside the synthesizer's
counterexample cache.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Iterable, Mapping, Tuple

#: Identity element returned by ``max`` of an empty relation (Appendix C).
NEG_INF = float("-inf")

#: Identity element returned by ``min`` of an empty relation (Appendix C).
POS_INF = float("inf")


class Record(Mapping[str, Any]):
    """An immutable record: a collection of named scalar fields.

    Records compare by value and are hashable, which lets relations be
    deduplicated (``unique``), used in ``contains`` checks, and cached.
    Field order is preserved and significant for projection output.

    >>> r = Record(id=1, name="alice")
    >>> r["id"], r.fields
    (1, ('id', 'name'))
    """

    __slots__ = ("_fields", "_values", "_hash")

    def __init__(self, _mapping: Mapping[str, Any] = None, **kwargs: Any):
        items = []
        if _mapping is not None:
            items.extend(_mapping.items())
        items.extend(kwargs.items())
        fields = tuple(k for k, _ in items)
        if len(set(fields)) != len(fields):
            raise ValueError("duplicate field names in record: %r" % (fields,))
        object.__setattr__(self, "_fields", fields)
        object.__setattr__(self, "_values", tuple(v for _, v in items))
        object.__setattr__(self, "_hash", hash((fields, self._values)))

    # The getter is a C call, so a loop that checks many records'
    # fields pays no Python frame per record.
    fields = property(attrgetter("_fields"),
                      doc="Field names in declaration order.")

    def __getitem__(self, field: str) -> Any:
        try:
            return self._values[self._fields.index(field)]
        except ValueError:
            raise KeyError(field) from None

    def __getattr__(self, field: str) -> Any:
        # Allow attribute-style access (record.id) which mirrors the way
        # fields are accessed in the kernel language (``e.f``).
        if field.startswith("_"):
            raise AttributeError(field)
        try:
            return self[field]
        except KeyError:
            raise AttributeError(field) from None

    def __setattr__(self, field: str, value: Any):
        raise AttributeError("records are immutable")

    def __iter__(self):
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # The default slot-based pickling would restore fields through
        # __setattr__, which records forbid; rebuild through __init__
        # instead.
        return (Record, (dict(zip(self._fields, self._values)),))

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, Record):
            return self._fields == other._fields and self._values == other._values
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join("%s=%r" % (f, v) for f, v in zip(self._fields, self._values))
        return "{%s}" % inner

    def project(self, field_pairs: Iterable[Tuple[str, str]]) -> "Record":
        """Project this record onto ``(source, target)`` field pairs.

        Mirrors the projection axiom: each output field ``target`` takes
        the value of ``source`` in this record.  The same source may be
        replicated under several targets, matching relational projection.
        """
        return Record({target: self[source] for source, target in field_pairs})

    def concat(self, other: "Record", prefix_self: str = "", prefix_other: str = "") -> "Record":
        """Concatenate two records, as done by the join axiom ``(e, h)``.

        On a field-name clash the caller must supply distinguishing
        prefixes — the SQL generator renames columns the same way.
        """
        out = {}
        for f in self._fields:
            out[prefix_self + f] = self[f]
        for f in other._fields:
            key = prefix_other + f
            if key in out:
                raise ValueError(
                    "field clash %r when concatenating records; supply prefixes" % key
                )
            out[key] = other[f]
        return Record(out)


class PairRow:
    """A join output row: the pair ``(e, h)`` produced by the join axiom.

    The join axiom of Appendix C builds output rows as *pairs* of input
    rows rather than flattened records, so nested joins produce nested
    pairs.  Fields of a pair are addressed with dotted paths such as
    ``"left.role_id"`` or ``"right.left.id"`` (see :func:`resolve_path`);
    the SQL generator maps path prefixes to table aliases.

    The hash is computed on first use and kept: most pairs a join builds
    are compared or read, never hashed.
    """

    __slots__ = ("left", "right", "_hash")

    def __init__(self, left: Any, right: Any):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, name: str, value: Any):
        raise AttributeError("pair rows are immutable")

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash(("pair", self.left, self.right))
            object.__setattr__(self, "_hash", value)
            return value

    def __reduce__(self):
        # As for records: the default slot-based pickling would restore
        # through __setattr__.  Rebuilding through __init__ also leaves
        # the cached hash behind, which must not cross a process
        # (string hashes differ from one process to the next).
        return (PairRow, (self.left, self.right))

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, PairRow):
            return self.left == other.left and self.right == other.right
        return NotImplemented

    def __repr__(self) -> str:
        return "(%r, %r)" % (self.left, self.right)


_new = object.__new__
_set_fields = Record._fields.__set__
_set_values = Record._values.__set__
_set_record_hash = Record._hash.__set__


def make_record(fields: Tuple[str, ...], values: Iterable[Any]) -> Record:
    """The record with these field names and values, in this order.

    Equal to ``Record(dict(zip(fields, values)))`` for a duplicate-free
    ``fields`` tuple of the values' length, which the caller guarantees
    (a compiled projection fixes its field tuple once), so no item list
    is built and no duplicate check runs per record.
    """
    values = tuple(values)
    record = _new(Record)
    _set_fields(record, fields)
    _set_values(record, values)
    _set_record_hash(record, hash((fields, values)))
    return record


def resolve_path(row: Any, path: str) -> Any:
    """Resolve a dotted field path against a row.

    ``"f"`` reads field ``f`` of a record row; ``"left.f"`` descends into
    the left component of a :class:`PairRow` first.  A bare ``"left"`` /
    ``"right"`` yields the whole component (used when a projection keeps
    one entire side of a join, as the running example does with the User
    side).
    """
    current = row
    for part in path.split("."):
        if isinstance(current, PairRow):
            if part == "left":
                current = current.left
                continue
            if part == "right":
                current = current.right
                continue
            raise KeyError(
                "path component %r does not address a pair side in %r" % (part, path)
            )
        if isinstance(current, Record):
            current = current[part]
            continue
        raise KeyError("cannot resolve %r of non-record row %r" % (part, current))
    return current


_SIDES = ("left", "right")


def field_getter(path: str) -> Callable[[Any], Any]:
    """``get(row)`` equal to ``resolve_path(row, path)``, path split once.

    A compiled TOR expression reads the same path from every row it
    visits, so the path is taken apart here, when the closure is built.
    The getter handles the shapes paths have — pair sides, then at most
    one record field — and hands any other row (a missing field, a
    scalar row, a subclass) to :func:`resolve_path`, so it returns the
    same values and raises the same ``KeyError``\\ s.

    >>> get = field_getter("right.id")
    >>> get(PairRow(Record(id=1), Record(id=2)))
    2
    """
    parts = path.split(".")
    field = None if parts[-1] in _SIDES else parts.pop()
    if not all(part in _SIDES for part in parts):
        return lambda row: resolve_path(row, path)
    steps = tuple(attrgetter(part) for part in parts)

    def get_path(row):
        current = row
        for step in steps:
            if current.__class__ is not PairRow:
                return resolve_path(row, path)
            current = step(current)
        if field is None:
            return current
        if current.__class__ is Record:
            try:
                return current._values[current._fields.index(field)]
            except ValueError:
                pass
        return resolve_path(row, path)
    return get_path


def row_fields(row: Any, prefix: str = "") -> Tuple[str, ...]:
    """All addressable field paths of a row, depth-first.

    For a record this is its field names; for a pair it is the union of
    ``left.*`` and ``right.*`` paths.
    """
    if isinstance(row, Record):
        return tuple(prefix + f for f in row.fields)
    if isinstance(row, PairRow):
        return row_fields(row.left, prefix + "left.") + row_fields(
            row.right, prefix + "right."
        )
    return (prefix.rstrip("."),) if prefix else ()


def as_relation(rows: Iterable[Any]) -> Tuple[Any, ...]:
    """Coerce an iterable of rows into the canonical relation representation.

    Dicts become :class:`Record`; records and scalars pass through.
    """
    out = []
    for row in rows:
        if isinstance(row, Record):
            out.append(row)
        elif isinstance(row, Mapping):
            out.append(Record(row))
        else:
            out.append(row)
    return tuple(out)


def row_scalar(row: Any) -> Any:
    """Return the scalar content of a single-column row.

    The aggregate axioms (``sum``/``max``/``min``) assume the input
    relation has exactly one numeric field; this helper extracts it,
    accepting either a bare scalar row or a one-field record.
    """
    if isinstance(row, Record):
        if len(row.fields) != 1:
            raise ValueError(
                "aggregate over relation with %d fields; the TOR axioms "
                "require exactly one" % len(row.fields)
            )
        return row[row.fields[0]]
    return row
