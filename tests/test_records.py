"""The contract of the public record types: construction, immutability,
value equality and the checks of the two validating records."""

import inspect
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import h3cover
from h3cover import analysis, constructions, patterns
from h3cover.analysis import (
    BoundBracket,
    CheckResult,
    PartitionDiagnostics,
    RecoveredPartition,
    SearchReport,
    SyClass,
    VerificationReport,
)
from h3cover.constructions import AdmissiblePairSet, ConstructionClaims, Tripartition
from h3cover.core import Hypergraph3
from h3cover.patterns import Pattern, pattern


def _samples() -> dict:
    """Constructor arguments for each record, built afresh on every call, so
    two calls give equal values that are not the same objects."""
    tri = Tripartition(9, ((0, 1, 2), (3, 4, 5), (6, 7, 8)))
    diag = PartitionDiagnostics(0, 1, 2, 3, (3, 3, 3), Fraction(1, 3))
    check = CheckResult("min_codegree", 4, 4, True)
    k4 = pattern("K4")
    return {
        BoundBracket: (1, 3, 2, "theorem"),
        SyClass: ("S3", frozenset({"ax", "bx", "cx"})),
        SearchReport: ("K4", 6, 2, Hypergraph3.from_triples(6, [(0, 1, 2)]), 5, 100, True, 1.5, "n"),
        PartitionDiagnostics: (0, 1, 2, 3, (3, 3, 3), Fraction(1, 3)),
        RecoveredPartition: (tri, (0, 3, 6), (3, 3, 3), diag, True),
        CheckResult: ("min_codegree", 4, 4, True),
        VerificationReport: ((check,), True),
        Tripartition: (None, ((0, 1), (2, 3))),
        AdmissiblePairSet: ("0", frozenset({(1, 5)})),
        ConstructionClaims: ("f1", 12, 6, (11,), tri, "K4", (("t", 3),)),
        Pattern: tuple(getattr(k4, name) for name in inspect.signature(Pattern).parameters),
    }


def _fields(obj) -> tuple:
    return tuple(getattr(obj, name) for name in inspect.signature(type(obj)).parameters)


def test_samples_cover_every_public_record():
    public = {obj for mod in (analysis, constructions, patterns) for name in mod.__all__
              if isinstance(obj := getattr(mod, name), type)}
    assert public == set(_samples())


@pytest.mark.parametrize("cls", list(_samples()), ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    args = _samples()[cls]
    params = inspect.signature(cls).parameters
    assert len(args) == len(params)
    obj = cls(*args)
    # positional and keyword construction agree, and omitted defaults equal passed ones
    assert _fields(cls(**dict(zip(params, args)))) == _fields(obj)
    required = [name for name, p in params.items() if p.default is inspect.Parameter.empty]
    defaults = [p.default for p in params.values() if p.default is not inspect.Parameter.empty]
    assert _fields(cls(*args[:len(required)])) == (*_fields(obj)[:len(required)], *defaults)
    # immutable: neither a field nor a new attribute can be set
    with pytest.raises(AttributeError):
        setattr(obj, next(iter(params)), args[0])
    with pytest.raises(AttributeError):
        obj.extra = 1
    if cls is not Pattern:  # the contract leaves a pattern's equality open
        twin = cls(*_samples()[cls])
        assert twin == obj and hash(twin) == hash(obj)


def test_validating_records_check_their_arguments():
    with pytest.raises(ValueError, match="inverted"):
        BoundBracket(3, 2)
    with pytest.raises(ValueError, match="outside"):
        BoundBracket(0, 2, 5)
    assert AdmissiblePairSet("0", {(5, 1)}).pairs == frozenset({(1, 5)})
    with pytest.raises(ValueError, match="unknown case"):
        AdmissiblePairSet("3", set())


def test_replace_runs_the_checks_of_validating_records():
    bracket = BoundBracket(1, 3)
    assert bracket._replace(exact=2) == BoundBracket(1, 3, 2)
    with pytest.raises(ValueError, match="inverted"):
        bracket._replace(lower=4)
    with pytest.raises(ValueError, match="outside"):
        bracket._replace(exact=5)
    pairs = AdmissiblePairSet("0", set())
    assert pairs._replace(pairs={(5, 1)}).pairs == frozenset({(1, 5)})
    with pytest.raises(ValueError, match="unknown case"):
        pairs._replace(case="3")


def test_cli_import_leaves_dataclasses_unloaded():
    # generating a dataclass's methods costs more at start-up than the rest of the package's module bodies
    src = str(Path(h3cover.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, h3cover.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env=env, check=True,
    )
    assert proc.stdout == "False\n"
