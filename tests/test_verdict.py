"""pwcert.verdict.record: every result and witness class behaves as the frozen dataclass it replaced.

Each record class is compared with a frozen dataclass built by
dataclasses.make_dataclass from the same annotations and defaults.
"""

import dataclasses
import importlib
import pkgutil
from fractions import Fraction

import pytest

import pwcert
from pwcert import jsonio
from pwcert.poly import Poly

MODULES = [importlib.import_module(f"pwcert.{m.name}") for m in pkgutil.iter_modules(pwcert.__path__)]
RECORDS = sorted({obj for module in MODULES for obj in vars(module).values()
                  if isinstance(obj, type) and "__record_fields__" in vars(obj)}, key=lambda cls: cls.__name__)
# Values of several types, so repr and hash see Fractions, tuples, None and strings.
SAMPLES = (Fraction(-187, 1), -2, "F_3", (1, (2, 3)), None, True)
VALID = {  # two samples each of the classes whose __post_init__ constrains the values
    "GeneratorCoords": [{"m": 1, "h": (Poly([1]), Poly([0, Fraction(1, 2)]))},
                        {"m": 1, "h": (Poly([1]), Poly([2]))}],
}


def sample_kwargs(cls, shift=0):
    """Field values for cls; a different shift gives values that differ in at least one field."""
    if cls.__name__ in VALID:
        return VALID[cls.__name__][shift]
    return {name: SAMPLES[(i + shift) % len(SAMPLES)] for i, name in enumerate(cls.__record_fields__)}


def as_dataclass(cls):
    fields = [(name, cls.__annotations__[name],
               dataclasses.field(default=vars(cls)[name]) if name in vars(cls) else dataclasses.field())
              for name in cls.__record_fields__]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def test_every_result_class_is_a_record():
    assert len(RECORDS) == 10
    assert {"Accept", "Reject", "SwapWitness", "GeneratorCoords"} <= {c.__name__ for c in RECORDS}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_matches_frozen_dataclass(cls):
    kwargs = sample_kwargs(cls)
    assert cls.__record_fields__ == tuple(cls.__annotations__)
    reference = as_dataclass(cls)(**kwargs)
    rec = cls(**kwargs)
    assert repr(rec) == repr(reference)
    assert hash(rec) == hash(reference) == hash(tuple(kwargs.values()))
    assert rec == cls(*kwargs.values()) and not rec != cls(**kwargs)
    assert rec != reference  # a record equals only records of its own class
    other = sample_kwargs(cls, shift=1)
    assert rec != cls(**other) and reference != type(reference)(**other)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_is_frozen(cls):
    rec = cls(**sample_kwargs(cls))
    for name in (*cls.__record_fields__, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert repr(rec) == repr(cls(**sample_kwargs(cls)))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_bad_arguments_raise_type_error(cls):
    kwargs = sample_kwargs(cls)
    first, values = cls.__record_fields__[0], list(kwargs.values())
    with pytest.raises(TypeError):
        cls()  # every record has a field without a default
    with pytest.raises(TypeError):
        cls(*values, 0)
    with pytest.raises(TypeError):
        cls(**kwargs, no_such_field=0)
    with pytest.raises(TypeError):
        cls(values[0], **{first: values[0]})


def test_defaults_apply():
    from pwcert.verdict import Accept, Reject

    assert Accept(h=1).coords is None and Accept(1) == Accept(h=1, coords=None)
    assert repr(Accept(Fraction(1))) == repr(as_dataclass(Accept)(Fraction(1)))
    # accepted is a class attribute, not a field.
    assert (Accept.accepted, Reject.accepted) == (True, False)
    assert Accept.__record_fields__ == ("h", "coords") and Reject.__record_fields__ == ("witness",)


def test_equal_values_in_different_classes_are_unequal():
    from pwcert.sl2r import OddQuotientWitness, RootWitness
    from pwcert.sl2r_product import ProductRootWitness

    witnesses = [RootWitness(1, Fraction(2)), OddQuotientWitness(1, Fraction(2)), ProductRootWitness(1, Fraction(2))]
    assert len({*witnesses}) == 3
    assert all(a != b for a in witnesses for b in witnesses if a is not b)


def test_post_init_still_validates():
    from pwcert.sl2c import GeneratorCoords

    with pytest.raises(ValueError, match="expected 3 coordinates, got 2"):
        GeneratorCoords(2, (Poly([1]), Poly([1])))
    with pytest.raises(ValueError, match="expected 1 coordinates, got 0"):
        GeneratorCoords(0, ())
    with pytest.raises(ValueError, match="expected 2 coordinates, got 3"):
        GeneratorCoords(1, (Poly([1]),) * 3)


def test_witness_json_reads_the_record_fields():
    from pwcert.sl2c import SwapWitness

    w = SwapWitness(weight_k=-2, weight_l=4, value_kl=Fraction(-187), value_lk=Fraction(3, 2))
    assert jsonio.witness_to_json(w) == {"kind": "SwapWitness", "weight_k": -2, "weight_l": 4,
                                         "value_kl": "-187", "value_lk": "3/2"}
    for not_a_record in (object(), SwapWitness, as_dataclass(SwapWitness)(-2, 4, Fraction(1), Fraction(1))):
        with pytest.raises(TypeError):
            jsonio.witness_to_json(not_a_record)
