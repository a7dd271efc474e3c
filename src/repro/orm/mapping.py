"""Entity declarations: tables, columns, associations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple


@dataclass(frozen=True)
class Association:
    """A reference from one entity to another, resolved by key equality.

    ``local_column`` on the owning entity matches ``remote_column`` on
    the target; ``many`` selects between a single object (many-to-one)
    and a list (one-to-many).
    """

    name: str
    target: str            # target EntityType name
    local_column: str
    remote_column: str
    many: bool = False


@dataclass
class EntityType:
    """One mapped entity: table, columns and associations."""

    name: str
    table: str
    columns: Tuple[str, ...]
    associations: Tuple[Association, ...] = ()


class MappingRegistry:
    """All entity types of one application."""

    def __init__(self):
        self.entities: Dict[str, EntityType] = {}
        #: (entity name, row fields) -> the class such rows hydrate into,
        #: built by the session on first use; a registration drops them.
        self.entity_classes: Dict[Tuple[str, Tuple[str, ...]], Any] = {}
        #: bumped by every registration; a session serves no association
        #: it resolved under an earlier generation.
        self.generation = 0

    def register(self, entity: EntityType) -> EntityType:
        self.entities[entity.name] = entity
        self.entity_classes.clear()
        self.generation += 1
        return entity

    def entity(self, name: str) -> EntityType:
        try:
            return self.entities[name]
        except KeyError:
            raise KeyError("unmapped entity %r" % name) from None
