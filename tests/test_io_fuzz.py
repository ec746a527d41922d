"""Mutation-fuzz of the hardened instance decoder.

The deserialisation path is the trust boundary of the planning service:
request bodies go straight from ``json.loads`` into
``instance_from_dict``.  This suite corrupts a valid instance dict in
~50 seeded ways — deleted keys, wrong types, hostile strings, negative
quantities, truncated arrays — and asserts the one contract the server
relies on: the decoder either returns a valid instance or raises
``InvalidInstanceError``; no ``KeyError``/``TypeError``/``ValueError``
traceback ever escapes.
"""

from __future__ import annotations

import copy
import json
import random

import numpy as np
import pytest

from repro import io as repro_io
from repro.core import InvalidInstanceError
from repro.io import instance_from_dict, instance_to_dict
from repro.paper_example import build_example_instance
from repro.reductions import knapsack_to_usep

#: Values a corruption may splice in where something else belongs.
_JUNK = [
    None,
    True,
    False,
    -1,
    -3.5,
    float("nan"),
    "inf",
    "-inf",
    "1e9",
    "DROP TABLE events",
    "",
    [],
    {},
    [[]],
    {"nested": {"deep": []}},
    "\x00\x01",
    "𝔘𝔫𝔦𝔠𝔬𝔡𝔢",
    1 << 80,
]


def _paths(node, prefix=()):
    """Every (path, value) pair in a nested JSON structure."""
    yield prefix, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


def _set_path(root, path, value):
    node = root
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value


def _del_path(root, path):
    node = root
    for step in path[:-1]:
        node = node[step]
    del node[path[-1]]


def _corrupt(data, rng):
    """One random structural mutation; returns the mutated copy."""
    mutated = copy.deepcopy(data)
    paths = [p for p, _ in _paths(mutated) if p]
    path = rng.choice(paths)
    op = rng.choice(("replace", "delete", "truncate", "negate", "stringify"))
    node = mutated
    for step in path[:-1]:
        node = node[step]
    leaf = node[path[-1]]
    if op == "delete" and isinstance(node, dict):
        _del_path(mutated, path)
    elif op == "truncate" and isinstance(leaf, list) and leaf:
        _set_path(mutated, path, leaf[: len(leaf) // 2])
    elif op == "negate" and isinstance(leaf, (int, float)):
        _set_path(mutated, path, -abs(leaf) - 1)
    elif op == "stringify":
        _set_path(mutated, path, json.dumps(leaf))
    else:
        _set_path(mutated, path, rng.choice(_JUNK))
    return mutated


def _assert_decodes_or_typed_error(payload):
    try:
        instance_from_dict(payload)
    except InvalidInstanceError:
        pass  # the typed rejection the service maps to HTTP 400
    # any other exception type propagates and fails the test


class TestMutationFuzz:
    def test_grid_corpus_only_typed_errors(self):
        data = instance_to_dict(build_example_instance())
        rng = random.Random(20260806)
        for _ in range(50):
            _assert_decodes_or_typed_error(_corrupt(data, rng))

    def test_matrix_corpus_only_typed_errors(self):
        data = instance_to_dict(knapsack_to_usep([3.0, 5.0, 2.0], [2, 4, 1], 6))
        rng = random.Random(99)
        for _ in range(50):
            _assert_decodes_or_typed_error(_corrupt(data, rng))

    def test_top_level_junk(self):
        for junk in _JUNK:
            _assert_decodes_or_typed_error(junk)

    @pytest.mark.parametrize(
        "mutate, path_fragment",
        [
            (lambda d: d["events"][1].pop("capacity"), "events[1].capacity"),
            (lambda d: d["events"][1].update(capacity=-2), "events[1].capacity"),
            (lambda d: d["users"][0].update(budget="lots"), "users[0].budget"),
            (lambda d: d["users"][2].pop("location"), "users[2].location"),
            (
                lambda d: d["utilities"][0].__setitem__(1, "0.5"),
                "utilities[0][1]",
            ),
        ],
    )
    def test_error_names_json_path(self, mutate, path_fragment):
        data = instance_to_dict(build_example_instance())
        mutate(data)
        with pytest.raises(InvalidInstanceError) as excinfo:
            instance_from_dict(data)
        assert path_fragment in str(excinfo.value)

    def test_non_inf_cost_string_rejected_with_path(self):
        data = instance_to_dict(knapsack_to_usep([3.0, 5.0], [2, 4], 5))
        data["cost_model"]["event_event"][0][1] = "infinity"
        with pytest.raises(InvalidInstanceError) as excinfo:
            instance_from_dict(data)
        assert "event_event[0][1]" in str(excinfo.value)

    def test_valid_instance_still_round_trips(self):
        data = instance_to_dict(build_example_instance())
        rebuilt = instance_from_dict(copy.deepcopy(data))
        assert instance_to_dict(rebuilt) == data


#: A number no float64 can hold: ``float()`` overflows on it.
_HUGE_INT = 10**400


def _utilities_outcome(decode, rows):
    """What one utilities decode path makes of ``rows``: the matrix's
    bits, the ragged rows it passed on, or the error message."""
    try:
        value = decode(copy.deepcopy(rows))
    except InvalidInstanceError as exc:
        return ("error", str(exc))
    try:
        matrix = np.asarray(value, dtype=float)
    except ValueError:  # ragged: USEPInstance rejects its shape later
        return ("ragged", value)
    return ("matrix", matrix.shape, matrix.tobytes())


class TestUtilitiesFastPath:
    """The one-array utilities decode agrees with the per-cell path."""

    BASE = [[0.5, 1, 0], [0.0, 0.25, 1.0]]

    @pytest.mark.parametrize(
        "case, mutate, expected",
        [
            ("valid", lambda rows: None, "matrix"),
            ("inf", lambda rows: rows[1].__setitem__(0, float("inf")), "matrix"),
            ("bool", lambda rows: rows[0].__setitem__(1, True), "error"),
            ("numeric string", lambda rows: rows[1].__setitem__(2, "0.5"), "error"),
            ("nan", lambda rows: rows[0].__setitem__(2, float("nan")), "error"),
            ("ragged row", lambda rows: rows[1].pop(), "ragged"),
            ("tuple row", lambda rows: rows.__setitem__(0, (0.5, 1, 0)), "matrix"),
            ("huge int", lambda rows: rows[1].__setitem__(1, _HUGE_INT), "error"),
        ],
    )
    def test_same_matrix_or_same_error(self, case, mutate, expected):
        rows = copy.deepcopy(self.BASE)
        mutate(rows)
        fast = _utilities_outcome(repro_io._utility_matrix, rows)
        cells = _utilities_outcome(repro_io._utility_cells, rows)
        assert fast == cells
        assert fast[0] == expected

    def test_plain_numeric_rows_take_one_array(self):
        assert isinstance(repro_io._utility_matrix(self.BASE), np.ndarray)

    def test_rejections_keep_their_path(self):
        data = instance_to_dict(build_example_instance())
        data["utilities"][1][2] = _HUGE_INT
        with pytest.raises(InvalidInstanceError) as excinfo:
            instance_from_dict(data)
        assert "utilities[1][2]" in str(excinfo.value)
        data["utilities"][1][2] = float("nan")
        with pytest.raises(InvalidInstanceError, match=r"utilities\[1\]\[2\]"):
            instance_from_dict(data)

    def test_fast_decode_round_trips(self):
        data = instance_to_dict(build_example_instance())
        rebuilt = instance_from_dict(json.loads(json.dumps(data)))
        assert instance_to_dict(rebuilt) == data


class TestUnrepresentableNumbers:
    """Numbers a float cannot hold are typed, path-named 400s."""

    @pytest.mark.parametrize(
        "mutate, path_fragment",
        [
            (lambda d: d["users"][0].update(budget=_HUGE_INT), "users[0].budget"),
            (lambda d: d["events"][1].update(start=-_HUGE_INT), "events[1].start"),
            (
                lambda d: d["events"][0]["location"].__setitem__(1, _HUGE_INT),
                "events[0].location[1]",
            ),
            (
                lambda d: d["users"][1]["location"].__setitem__(0, float("inf")),
                "users[1].location[0]",
            ),
            (
                lambda d: d["events"][2]["location"].__setitem__(0, -float("inf")),
                "events[2].location[0]",
            ),
        ],
    )
    def test_typed_error_names_the_value(self, mutate, path_fragment):
        data = instance_to_dict(build_example_instance())
        mutate(data)
        with pytest.raises(InvalidInstanceError) as excinfo:
            instance_from_dict(data)
        assert path_fragment in str(excinfo.value)

    def test_json_overflowing_float_literal_is_rejected(self):
        # json.loads reads 1e400 as inf
        body = json.dumps(instance_to_dict(build_example_instance()))
        body = body.replace('"location": [', '"location": [1e400, ', 1)
        data = json.loads(body)
        data["events"][0]["location"].pop()
        with pytest.raises(InvalidInstanceError, match=r"events\[0\]\.location\[0\]"):
            instance_from_dict(data)

    def test_huge_int_anywhere_numeric_is_a_typed_error(self):
        data = instance_to_dict(build_example_instance())
        numeric = [
            path
            for path, value in _paths(data)
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        ]
        assert numeric
        for path in numeric:
            mutated = copy.deepcopy(data)
            _set_path(mutated, path, _HUGE_INT)
            _assert_decodes_or_typed_error(mutated)
