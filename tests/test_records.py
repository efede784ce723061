"""Value semantics of the slotted records.

Parsed programs compare structurally and ``Site`` and ``CacheConfig``
are compared as values, but a record never equals one of another class,
and the read-only records refuse assignment once built.
"""

import pytest

from symleak import expr as ex
from symleak.cache import CacheConfig, Site
from symleak.ir import (BinOp, Fixed, Load, Name, Num, PublicInput,
                        SecretInput, SymbolicBase)


def test_records_of_different_classes_never_compare_equal():
    assert Num(8) == Num(8)
    assert Num(8) != Fixed(8)
    assert Name("k") != SymbolicBase("k")
    assert SecretInput("k", 8) != PublicInput("k", 8, 0)


def test_equal_records_hash_equal():
    pairs = [
        (Load("r", "t", BinOp("+", Name("k"), Num(1)), 3),
         Load("r", "t", BinOp("+", Name("k"), Num(1)), 3)),
        (Site(1, 3, "load", "t"), Site(1, 3, "load", "t")),
        (CacheConfig(512, 1, 1), CacheConfig(512, 1, 1)),
    ]
    for a, b in pairs:
        assert a == b and a is not b
        assert hash(a) == hash(b)
    assert len({Site(1, 3, "load", "t"), Site(1, 3, "load", "t")}) == 1


@pytest.mark.parametrize("record, field", [
    (ex.var("k", 8), "width"),
    (Site(1, 3, "load", "t"), "line"),
    (CacheConfig(), "assoc"),
    (Num(0), "value"),
    (Load("r", "t", Num(0), 3), "line"),
])
def test_read_only_records_reject_assignment(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, 2)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == before
