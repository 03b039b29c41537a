import subprocess
import sys

import numpy as np
import pytest

from phqm import cli, linalg, models
from phqm._record import Record
from phqm.errors import InputError


class Point(Record):
    x: float
    y: float = 2.0
    label: str | None = None

    def __post_init__(self):
        if self.x < 0:
            raise ValueError("x must be non-negative")
        object.__setattr__(self, "x", float(self.x))


def test_fields_bind_by_position_and_keyword_with_defaults():
    assert Point._fields == ("x", "y", "label")
    assert vars(Point(1.0)) == {"x": 1.0, "y": 2.0, "label": None}
    assert vars(Point(1.0, 3.0, "a")) == {"x": 1.0, "y": 3.0, "label": "a"}
    assert vars(Point(y=3.0, x=1.0)) == {"x": 1.0, "y": 3.0, "label": None}


@pytest.mark.parametrize("args, kwargs", [((), {}), ((1.0,), {"z": 0.0}), ((1.0, 2.0, "a", 4.0), {}),
                                          ((1.0,), {"x": 1.0})],
                         ids=["missing", "unknown", "too-many", "twice"])
def test_a_missing_or_unknown_argument_raises_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Point(*args, **kwargs)


def test_fields_can_be_neither_assigned_nor_deleted():
    p = Point(1.0)
    with pytest.raises(AttributeError, match="immutable"):
        p.x = 2.0
    with pytest.raises(AttributeError, match="immutable"):
        p.z = 2.0
    with pytest.raises(AttributeError, match="immutable"):
        del p.y
    assert vars(p) == {"x": 1.0, "y": 2.0, "label": None}


def test_post_init_validates_and_coerces():
    assert type(Point(1).x) is float
    with pytest.raises(ValueError, match="non-negative"):
        Point(-1.0)
    # a library record's check runs too
    with pytest.raises(InputError, match="r must be positive"):
        models.TwoLevelParams(1.0, r=0.0)


def test_replace_keeps_the_other_fields_and_checks_again():
    p = Point(1.0, label="a")
    q = p.replace(y=5.0)
    assert vars(q) == {"x": 1.0, "y": 5.0, "label": "a"}
    assert vars(p) == {"x": 1.0, "y": 2.0, "label": "a"}
    with pytest.raises(ValueError):
        p.replace(x=-1.0)
    with pytest.raises(TypeError):
        p.replace(z=0.0)


def test_repr_lists_the_fields_in_order():
    assert repr(Point(1.0, label="a")) == "Point(x=1.0, y=2.0, label='a')"


def test_records_compare_and_hash_by_identity():
    p = Point(1.0)
    assert p == p and p != Point(1.0)
    assert len({p, Point(1.0)}) == 2


def test_cached_properties_still_cache():
    dec = linalg.eig_nonhermitian(np.diag([1.0, 2.0]).astype(complex))
    assert dec.condition is dec.condition
    assert "condition" in vars(dec)


def test_cli_reads_the_string_annotations_of_model_parameters():
    assert cli._fields(models.QuarticParams) == {
        "lam": ("float", True), "omega": ("float", False), "n": ("int", False),
        "length": ("float", False), "n_k": ("int", False), "length_k": ("float", False)}
    assert cli._fields(models.TwoLevelParams) == {
        "D": ("float", True), "r": ("float", False), "s": ("float", False)}


def test_importing_the_cli_does_not_import_dataclasses():
    # numpy, json and argparse leave dataclasses unloaded, so a returning
    # @dataclass anywhere in phqm shows here
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, phqm.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "False"
