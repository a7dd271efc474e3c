"""A Hibernate-like object-relational mapping layer.

The paper's subject programs access the database exclusively through
ORM calls (Hibernate).  This package provides the analogous substrate:

* :mod:`repro.orm.mapping` — entity declarations: table, columns and
  associations between entities;
* :mod:`repro.orm.session` — the session: loads entities, hydrates row
  records into Python objects a result at a time (a generated builder
  per entity class fills a run of rows), and implements the two
  association fetch modes the paper benchmarks (``lazy`` proxies that
  query on first access vs ``eager`` loading at hydration time, which
  resolves each association once per result); like a Hibernate session
  it is a persistence context, which runs each association lookup once
  per key;
* :mod:`repro.orm.dao` — DAO base class and the ``@query_method``
  decorator that both *implements* a persistent-data method at runtime
  and *marks* it for the QBS frontend (the paper's "persistent data
  methods", Sec. 6.1).

The ORM deliberately mirrors the performance characteristics that make
Fig. 14 interesting: every loaded row becomes a Python object (so
fetching fewer rows is proportionally cheaper), and eager mode issues
one association lookup per distinct key per session (the classic N+1
pattern, counted over distinct associated entities, which is why the
paper's eager curves sit above the lazy ones).
"""

from repro.orm.mapping import Association, EntityType
from repro.orm.session import Entity, Session
from repro.orm.dao import Dao, query_method

__all__ = [
    "Association",
    "EntityType",
    "Entity",
    "Session",
    "Dao",
    "query_method",
]
