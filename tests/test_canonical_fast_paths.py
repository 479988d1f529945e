"""The exact-type fronts of record and spec canonicalisation against oracles.

``records._canonical``, ``spec._freeze_value`` and ``spec._freeze_params``
dispatch on ``type(value)`` before their ``isinstance`` chains.  The oracles
below are those functions as they were before the fronts existed, copied
verbatim; every value must come out equal, with equal types at every depth
(and equal dict key order), or raise the same exception type.
"""

from __future__ import annotations

import json
from collections import OrderedDict, namedtuple
from types import MappingProxyType
from typing import Any, Iterator, Mapping

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.runtime import ScenarioSpec
from repro.runtime.records import RunRecord, _canonical
from repro.runtime.spec import _freeze_params, _freeze_value


def _oracle_canonical(value: Any) -> Any:
    if isinstance(value, (tuple, list)):
        return tuple(_oracle_canonical(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_oracle_canonical(item) for item in value))
    if isinstance(value, Mapping):
        return {str(key): _oracle_canonical(item) for key, item in sorted(value.items(), key=lambda kv: str(kv[0]))}
    return value


def _oracle_freeze_value(value: Any) -> Any:
    if isinstance(value, Mapping):
        return tuple(sorted((str(key), _oracle_freeze_value(item)) for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_oracle_freeze_value(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_oracle_freeze_value(item) for item in value))
    return value


def _oracle_freeze_params(params: Any):
    if params is None:
        return ()
    if isinstance(params, Mapping):
        items = params.items()
    else:
        items = [(key, value) for key, value in params]
    return tuple(sorted((str(key), value) for key, value in items))


Point = namedtuple("Point", "x y")


class UserMapping(Mapping):
    """A ``Mapping`` that is not a ``dict``."""

    def __init__(self, data):
        self._data = dict(data)

    def __getitem__(self, key):
        return self._data[key]

    def __iter__(self) -> Iterator:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)


#: Values the strategy cannot build, nested into generated ones as leaves.
FIXED = [
    Point(1, "a"),
    OrderedDict([("b", 1), ("a", [2, 3])]),
    MappingProxyType({"z": (1,), "y": {"x": 0}}),
    UserMapping({2: "two", "10": [None]}),
    {1: "a", "1": "b"},
    {True: 0, "True": 1},
]

scalars = st.one_of(
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
)
keys = st.one_of(st.integers(-3, 12), st.text(max_size=3), st.booleans(), st.none())
sets = st.one_of(
    st.sets(st.integers(), max_size=4),
    st.frozensets(st.text(max_size=3), max_size=4),
    st.sets(st.one_of(st.integers(), st.floats(allow_nan=False), st.booleans()), max_size=4),
)
values = st.recursive(
    st.one_of(scalars, sets, st.sampled_from(FIXED)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
    ),
    max_leaves=16,
)


def _typed(value: Any) -> Any:
    """``value`` with the type of every node spelled out, dict order included."""
    if isinstance(value, (tuple, list)):
        return (type(value), tuple(_typed(item) for item in value))
    if isinstance(value, dict):
        return (type(value), tuple((_typed(key), _typed(item)) for key, item in value.items()))
    return (type(value), value)


def _outcome(function, value: Any) -> Any:
    try:
        return _typed(function(value))
    except Exception as error:  # an unorderable set, say: both must raise
        return ("raised", type(error))


@pytest.mark.parametrize("function, oracle", [
    (_canonical, _oracle_canonical),
    (_freeze_value, _oracle_freeze_value),
])
@settings(max_examples=200, derandomize=True)
@given(value=values)
@example(value=FIXED)
@example(value={1: "a", "1": "b"})
@example(value={True: 0, "True": 1})
def test_fast_path_matches_the_oracle(function, oracle, value):
    assert _outcome(function, value) == _outcome(oracle, value)


@settings(max_examples=100, derandomize=True)
@given(params=st.one_of(
    st.none(),
    st.dictionaries(keys, scalars, max_size=4),
    st.lists(st.tuples(keys, scalars), max_size=4),
    st.lists(st.tuples(keys, scalars), max_size=4).map(tuple),
    st.dictionaries(keys, scalars, max_size=4).map(OrderedDict),
    st.dictionaries(keys, scalars, max_size=4).map(UserMapping),
))
def test_freeze_params_matches_the_oracle(params):
    assert _outcome(_freeze_params, params) == _outcome(_oracle_freeze_params, params)


@settings(max_examples=100, derandomize=True)
@given(extra=st.dictionaries(st.text(max_size=6), values, max_size=5))
def test_a_record_survives_its_json_round_trip(extra):
    try:
        record = RunRecord(
            spec=ScenarioSpec(values=({"x": 1}, [2, 3])),
            ok=True,
            cost=3,
            reason="met",
            decisions=4,
            graph_name="ring",
            graph_size=6,
            graph_edges=6,
            extra=extra,
        )
    except TypeError:  # a set whose members do not order
        return
    again = RunRecord.from_dict(json.loads(record.to_json()))
    assert again == record
    assert _typed(again.extra) == _typed(record.extra)
