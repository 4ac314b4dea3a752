"""The one walker that checks every JSON artifact this project reads.

A :class:`Table` states one shape as ``{field: (types, rule)}`` plus
object rules; a :class:`Schema` selects each row's table by its tag.
The walker returns violations instead of raising, on any input: the
bench validator prints them all, each runtime loader raises its own
named error from the first.
"""

from __future__ import annotations

import reprlib
from typing import Callable, NamedTuple

#: a types tuple holding NULL makes its field nullable; bool is only
#: accepted where it is listed explicitly (it subclasses int)
NULL = type(None)


class Rule(NamedTuple):
    """A ``test`` that a value or object must pass, and ``what`` it asks."""

    what: str
    test: Callable[[object], bool]


NON_NEGATIVE = Rule(">= 0", lambda v: v >= 0)
NON_EMPTY = Rule("a non-empty string", lambda s: bool(s.strip()))


def reject_constant(token: str) -> float:
    """``json.load``'s ``parse_constant`` for strict JSON artifacts."""
    raise ValueError(f"non-finite JSON constant {token!r} is not allowed; "
                     f"emit null instead")


class Table(NamedTuple):
    """One object shape: ``{field: (types, rule)}`` plus object rules; a
    field's rule may be a nested Table (an object) or Schema (rows)."""

    fields: dict[str, tuple[tuple, "Rule | Table | Schema | None"]]
    rules: tuple[Rule, ...] = ()
    #: whether an object of this shape counts towards ``min_rows``
    counted: bool = True
    #: fields an object may omit
    optional: tuple[str, ...] = ()


class Schema(NamedTuple):
    """Called on a document, checks its rows, a top-level list or the
    ``key`` field of a ``top`` object, against ``rows[row[tag]]``; a
    positional row lists its table's field values, its tag first."""

    noun: str
    unit: str
    rows: dict[str | None, Table]
    #: reject row fields the table does not name (a top level never does)
    closed: bool = True
    #: the tag's field name (for positional rows, its name in messages)
    tag: str | None = None
    positional: bool = False
    top: Table | None = None
    key: str | None = None
    #: the sort keys of well-formed rows must not decrease
    order: Callable[[dict], tuple] | None = None

    def __call__(self, doc: object, min_rows: int = 1) -> list[str]:
        """The walker: return the violations in ``doc`` (empty == valid)."""
        if not isinstance(doc, dict if self.key else list):
            shape = "an object" if self.key else "a list"
            return [f"top-level JSON must be {shape}, "
                    f"got {type(doc).__name__}"]
        if self.key:
            errors = _check(doc, self.top, closed=False)
            if errors:
                return [f"top-level JSON: {e}" for e in errors]
            doc = doc[self.key]
        errors, n, last = [], 0, None
        for i, row in enumerate(doc):
            table = self._match(row)
            if type(table) is str:
                errors.append(f"{self.noun} {i}: {table}")
                continue
            n += table.counted
            row_errors = _check(row, table, self.closed, self.positional)
            if row_errors:
                errors += [f"{self.noun} {i}: {e}" for e in row_errors]
            elif self.order:
                key = self.order(row)
                if last is not None and key < last:
                    errors.append(f"{self.noun} {i}: out of order, sort key "
                                  f"{key} after {last}")
                last = key
        if n < min_rows:
            errors.append(f"expected >= {min_rows} {self.unit}, got {n}")
        return errors

    def check(self, row: object) -> list[str]:
        """The violations of one row (a loader's one stored object)."""
        table = self._match(row)
        if type(table) is str:
            return [table]
        return _check(row, table, self.closed, self.positional)

    def _match(self, row: object) -> Table | str:
        """The table ``row`` selects, or why it selects none."""
        if not isinstance(row, list if self.positional else dict):
            shape = "a list" if self.positional else "an object"
            return f"not {shape}: {reprlib.repr(row)}"
        if self.tag is None or not row:
            variant = None
        else:
            variant = row[0] if self.positional else row.get(self.tag)
        # None keys an untagged table; an unhashable tag is never looked up
        table = (self.rows.get(variant)
                 if isinstance(variant, (str, NULL)) else None)
        if table is None:
            return (f"unknown {self.tag} {variant!r} "
                    f"(allowed: {list(self.rows)})")
        return table


def _check(obj: dict | list, table: Table, closed: bool,
           positional: bool = False, path: str = "") -> list[str]:
    """Violations of one object or positional row against one table;
    ``path`` prefixes the field names of a nested object."""
    fields, errors = table.fields, []
    if positional:
        if len(obj) != len(fields):
            return [f"expected fields {tuple(fields)}, "
                    f"got {len(obj)} values"]
        pairs = zip(fields.items(), obj)
    else:
        extra = obj.keys() - fields.keys() if closed else ()
        if extra:
            errors.append(f"unknown fields {sorted(extra, key=str)}")
        errors += [f"missing field {path + name!r}" for name in fields
                   if name not in obj and name not in table.optional]
        pairs = [(item, obj[item[0]]) for item in fields.items()
                 if item[0] in obj]
    for (name, (types, rule)), value in pairs:
        # an exact type match is the fast path; a subclass passes too,
        # but a bool only where bool is listed
        if type(value) not in types and (not isinstance(value, types) or (
                isinstance(value, bool) and bool not in types)):
            must = f", must be {rule.what}" if type(rule) is Rule else ""
            errors.append(f"field {path + name!r} has wrong type "
                          f"{type(value).__name__}{must}")
        elif value is None or rule is None:
            continue
        elif type(rule) is Rule:
            if not rule.test(value):
                errors.append(f"field {path + name!r} must be {rule.what}, "
                              f"got {reprlib.repr(value)}")
        elif type(rule) is Table:
            errors += _check(value, rule, False, path=f"{path}{name}.")
        else:
            errors += rule(value, 0)
    if errors or not table.rules:
        return errors
    return [rule.what for rule in table.rules if not rule.test(obj)]
