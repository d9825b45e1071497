"""The immutable value classes: equality, hashing, repr, immutability, copying."""

import copy
import pickle

import pytest

from commdet.identities import CATALOG, Identity, IdentityReport, prove_identity
from commdet.mat2 import Mat2
from commdet.quadforms import QuadForm, Representation, SearchResult
from commdet.rings import (
    IntegerRing,
    ModularRing,
    NilPlaneRing,
    ParseError,
    PolynomialRing,
    Ring,
    RingMismatchError,
    RingValue,
    ZZ,
    parse_value,
)
from commdet.witnesses import (
    FactorizationWitness,
    NormWitness,
    SurfacePoint,
    extract_norm_witness,
    factor_construct,
)


def _zz(n):
    # a fresh ring each time, so equal fields are equal but not identical
    return RingValue(IntegerRing(), n)


def _mat(a, b, c, d):
    return Mat2(_zz(a), _zz(b), _zz(c), _zz(d))


# class -> (field names in declaration order, a function building one set of field values)
CASES = {
    Ring: ((), lambda: ()),
    IntegerRing: ((), lambda: ()),
    ModularRing: (("modulus",), lambda: (7,)),
    PolynomialRing: (("variables",), lambda: (("a", "b"),)),
    NilPlaneRing: ((), lambda: ()),
    RingValue: (("ring", "payload"), lambda: (IntegerRing(), 3)),
    Mat2: (("m11", "m12", "m21", "m22"), lambda: (_zz(1), _zz(2), _zz(3), _zz(4))),
    QuadForm: (("s", "t", "delta"), lambda: (_zz(1), _zz(0), _zz(31))),
    Representation: (("r1", "r2", "value"), lambda: (_zz(77), _zz(5), _zz(6704))),
    SearchResult: (("found", "proved_absent", "bound"),
                   lambda: (Representation(_zz(1), _zz(2), _zz(5)), False, 10)),
    NormWitness: (("u", "v", "c", "t", "delta", "certified_value"),
                  lambda: tuple(_zz(n) for n in (-36, -5, -2, 1, 8, 1676))),
    FactorizationWitness: (("p", "q", "c", "r", "s", "X", "Y", "X1", "Y1", "A"),
                           lambda: tuple(_zz(n) for n in (2, 3, 5, 1, 1))
                           + tuple(_mat(n, 0, 0, n) for n in range(5))),
    SurfacePoint: (("x", "y", "z"), lambda: (_zz(15), _zz(5), _zz(-10))),
    Identity: (("tag", "symbols", "build"), lambda: ("I_4_9", ("a", "b", "c", "d"),
                                                     CATALOG["I_4_9"].build)),
    IdentityReport: (("id", "residual", "holds", "term_count_lhs", "term_count_rhs"),
                     lambda: ("I_4_9", _zz(0), True, 10, 12)),
}

# the repr of a dataclass, written out
REPRS = {
    ModularRing(7): "ModularRing(modulus=7)",
    PolynomialRing(("a", "b")): "PolynomialRing(variables=('a', 'b'))",
    RingValue(IntegerRing(), 3): "RingValue(ring=IntegerRing(), payload=3)",
    NilPlaneRing().x(): "RingValue(ring=NilPlaneRing(), payload=(0, 1, 0))",
    Representation(ZZ.from_int(1), ZZ.from_int(2), ZZ.from_int(5)):
        "Representation(r1=RingValue(ring=IntegerRing(), payload=1), "
        "r2=RingValue(ring=IntegerRing(), payload=2), "
        "value=RingValue(ring=IntegerRing(), payload=5))",
    SearchResult(None, True, 0): "SearchResult(found=None, proved_absent=True, bound=0)",
}

classes = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


@classes
def test_equal_fields_give_equal_values_and_hashes(cls):
    _, make = CASES[cls]
    a, b = cls(*make()), cls(*make())
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@classes
def test_same_fields_in_another_class_compare_unequal(cls):
    _, make = CASES[cls]
    other = type(cls.__name__, (cls,), {"__slots__": ()})
    a, b = cls(*make()), other(*make())
    assert a != b and b != a
    assert not a == b


def test_distinct_classes_with_alike_fields_compare_unequal():
    args = (ZZ.from_int(1), ZZ.from_int(2), ZZ.from_int(5))
    assert Representation(*args) != SurfacePoint(*args)
    assert IntegerRing() != NilPlaneRing() and Ring() != IntegerRing()
    assert ModularRing(7) != ModularRing(11)
    assert ZZ.from_int(1) != ModularRing(7).from_int(1)


@classes
def test_repr_is_the_dataclass_format(cls):
    names, make = CASES[cls]
    values = make()
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__qualname__}({fields})"


def test_repr_examples():
    for value, text in REPRS.items():
        assert repr(value) == text
    assert repr(ZZ) == str(ZZ) == "IntegerRing()"


def test_messages_embed_the_repr():
    with pytest.raises(ParseError, match=r"^unknown symbol 'x' for ring IntegerRing\(\)$"):
        parse_value(ZZ, "x")
    with pytest.raises(RingMismatchError,
                       match=r"^ring mismatch: IntegerRing\(\) vs ModularRing\(modulus=7\)$"):
        ZZ.from_int(1) + ModularRing(7).from_int(1)


@classes
def test_fields_cannot_be_assigned_or_deleted(cls):
    names, make = CASES[cls]
    value = cls(*make())
    for name in names + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert cls(*make()) == value


@classes
def test_copy_deepcopy_and_pickle(cls):
    _, make = CASES[cls]
    value = cls(*make())
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls
        assert twin == value and hash(twin) == hash(value)


@classes
def test_keyword_construction(cls):
    names, make = CASES[cls]
    values = make()
    assert cls(**dict(zip(names, values))) == cls(*values)
    for name, value in zip(names, values):
        assert getattr(cls(*values), name) == value


@pytest.mark.parametrize("cls", [Representation, SearchResult, NormWitness, FactorizationWitness,
                                 SurfacePoint, Identity, IdentityReport],
                         ids=lambda cls: cls.__name__)
def test_record_construction_checks_its_arguments(cls):
    names, make = CASES[cls]
    values = make()
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, 0)
    with pytest.raises(TypeError):
        cls(*values[:-1], extra=0)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})


def test_call_sites_build_equal_records():
    X, Y = _mat(0, 4, -2, 1), _mat(4, 3, 3, 0)
    assert extract_norm_witness(X, Y) == extract_norm_witness(X, Y)
    args = [_zz(n) for n in (2, 3, 5, 1, 1)]
    assert factor_construct(*args) == factor_construct(*args)
    assert prove_identity("I_4_9") == prove_identity("I_4_9")


def test_construction_checks_are_kept():
    with pytest.raises(ValueError, match="^modulus must be >= 2$"):
        ModularRing(1)
    with pytest.raises(ValueError, match="^modulus too large$"):
        ModularRing(2**64)
    with pytest.raises(ValueError, match="^variable names must be distinct$"):
        PolynomialRing(("a", "a"))
    with pytest.raises(ValueError, match="^variable names must be nonempty$"):
        PolynomialRing(("a", ""))
    z, m = ZZ.from_int(1), ModularRing(7).from_int(1)
    with pytest.raises(RingMismatchError, match="^matrix entries must share one ring$"):
        Mat2(z, z, z, m)
    with pytest.raises(RingMismatchError, match="^form coefficients must share one ring$"):
        QuadForm(z, m, z)
    with pytest.raises(RingMismatchError, match="^form coefficients must share one ring$"):
        QuadForm(z, z, m)
