"""Instance and planning (de)serialisation.

JSON is the interchange format: instances round-trip completely
(events, users, utilities, and either cost-model family), so workloads
generated here can be archived, diffed, or consumed by other tools, and
recorded plannings can be re-validated later against their instance.

``math.inf`` appears in event-to-event matrices (temporal conflicts);
it is encoded as the string ``"inf"`` for strict-JSON compatibility.

Deserialisation here is the boundary between untrusted bytes and the
typed core model: the planning service feeds request bodies straight
into :func:`instance_from_dict`.  Every structural defect — a missing
key, a wrong type, a ``"1e9"`` string where a number belongs, a
negative capacity — is therefore reported as
:class:`~repro.core.exceptions.InvalidInstanceError` carrying the JSON
path of the offending value (``events[3].capacity``), never a raw
``KeyError``/``TypeError``/``ValueError`` traceback.  The mutation-fuzz
suite (``tests/test_io_fuzz.py``) holds that contract.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core.costs import GridCostModel, MatrixCostModel
from .core.deltas import (
    AddEvent,
    AddUser,
    BudgetChange,
    CapacityChange,
    DropEvent,
    DropUser,
    Mutation,
    UtilityChange,
)
from .core.entities import Event, User
from .core.exceptions import InvalidInstanceError
from .core.instance import USEPInstance
from .core.planning import Planning, planning_from_dict
from .core.timeutils import TimeInterval

_FORMAT_VERSION = 1


def _encode_cost(value: float):
    return "inf" if math.isinf(value) else value


# -- hardened decoding helpers ------------------------------------------
#
# Each helper checks one structural expectation and raises
# InvalidInstanceError naming the JSON path on failure, so a malformed
# payload pinpoints its own defect instead of surfacing as a traceback
# three frames deep in a dataclass constructor.


def _type_name(value) -> str:
    return type(value).__name__


def _invalid(path: str, message: str) -> InvalidInstanceError:
    return InvalidInstanceError(f"{path}: {message}")


def _as_object(value, path: str) -> Dict:
    if not isinstance(value, dict):
        raise _invalid(path, f"expected an object, got {_type_name(value)}")
    return value


def _as_array(value, path: str) -> List:
    if not isinstance(value, (list, tuple)):
        raise _invalid(path, f"expected an array, got {_type_name(value)}")
    return list(value)


def _require(mapping: Dict, key: str, path: str):
    if key not in mapping:
        raise _invalid(f"{path}.{key}", "missing required key")
    return mapping[key]


def _as_number(value, path: str, minimum: Optional[float] = None) -> float:
    # bool is an int subclass; `true` where a number belongs is a bug.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _invalid(path, f"expected a number, got {_type_name(value)}")
    try:
        number = float(value)
    except OverflowError:
        raise _invalid(path, "integer too large for a float") from None
    if math.isnan(number):
        raise _invalid(path, "NaN is not a valid value")
    if minimum is not None and number < minimum:
        raise _invalid(path, f"must be >= {minimum}, got {number}")
    return number


def _as_int(value, path: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        else:
            raise _invalid(
                path, f"expected an integer, got {_type_name(value)}"
            )
    if minimum is not None and value < minimum:
        raise _invalid(path, f"must be >= {minimum}, got {value}")
    return value


def _as_location(value, path: str) -> Tuple[float, float]:
    coords = _as_array(value, path)
    if len(coords) != 2:
        raise _invalid(path, f"expected [x, y], got {len(coords)} element(s)")
    location = (
        _as_number(coords[0], f"{path}[0]"),
        _as_number(coords[1], f"{path}[1]"),
    )
    for axis, coord in enumerate(location):
        if not math.isfinite(coord):
            raise _invalid(f"{path}[{axis}]", f"must be finite, got {coord}")
    return location


def _decode_cost(value, path: str = "cost") -> float:
    """One travel-cost entry: a non-negative number or the string "inf"."""
    if value == "inf":
        return math.inf
    if isinstance(value, str):
        raise _invalid(
            path, f'expected a number or "inf", got the string {value!r}'
        )
    return _as_number(value, path, minimum=0.0)


def _cost_matrix(value, path: str) -> List[List[float]]:
    rows = _as_array(value, path)
    return [
        [
            _decode_cost(cell, f"{path}[{i}][{j}]")
            for j, cell in enumerate(_as_array(row, f"{path}[{i}]"))
        ]
        for i, row in enumerate(rows)
    ]


def _cost_model_to_dict(model) -> Dict:
    if isinstance(model, GridCostModel):
        return {
            "type": "grid",
            "metric": model.metric,
            "speed": model.speed,
            "integral": model.integral,
        }
    if isinstance(model, MatrixCostModel):
        return {
            "type": "matrix",
            "event_event": [[_encode_cost(c) for c in row] for row in model._ee],
            "user_event": [list(row) for row in model._ue],
            "event_user": (
                [list(row) for row in model._eu] if model._eu is not None else None
            ),
            "check_conflicts": model.check_conflicts,
        }
    raise InvalidInstanceError(
        f"cannot serialise cost model of type {type(model).__name__}; "
        "only GridCostModel and MatrixCostModel are supported"
    )


def _cost_model_from_dict(data, path: str = "cost_model"):
    data = _as_object(data, path)
    kind = data.get("type")
    if kind == "grid":
        metric = _require(data, "metric", path)
        if not isinstance(metric, str):
            raise _invalid(
                f"{path}.metric",
                f"expected a string, got {_type_name(metric)}",
            )
        speed = data.get("speed")
        if speed is not None:
            speed = _as_number(speed, f"{path}.speed")
        integral = data.get("integral", True)
        if not isinstance(integral, bool):
            raise _invalid(
                f"{path}.integral",
                f"expected a boolean, got {_type_name(integral)}",
            )
        try:
            return GridCostModel(metric=metric, speed=speed, integral=integral)
        except InvalidInstanceError as exc:
            raise _invalid(path, str(exc)) from exc
    if kind == "matrix":
        check = data.get("check_conflicts", True)
        if not isinstance(check, bool):
            raise _invalid(
                f"{path}.check_conflicts",
                f"expected a boolean, got {_type_name(check)}",
            )
        event_user = data.get("event_user")
        try:
            return MatrixCostModel(
                _cost_matrix(
                    _require(data, "event_event", path), f"{path}.event_event"
                ),
                _cost_matrix(
                    _require(data, "user_event", path), f"{path}.user_event"
                ),
                event_user=(
                    None
                    if event_user is None
                    else _cost_matrix(event_user, f"{path}.event_user")
                ),
                check_conflicts=check,
            )
        except InvalidInstanceError:
            raise
        except (TypeError, ValueError, IndexError) as exc:
            raise _invalid(path, f"malformed matrix cost model: {exc}") from exc
    raise _invalid(f"{path}.type", f"unknown cost model type {kind!r}")


def instance_to_dict(instance: USEPInstance) -> Dict:
    """Serialise an instance to a JSON-compatible dict."""
    return {
        "format_version": _FORMAT_VERSION,
        "name": instance.name,
        "events": [
            {
                "id": ev.id,
                "location": list(ev.location),
                "capacity": ev.capacity,
                "start": ev.start,
                "end": ev.end,
                "name": ev.name,
            }
            for ev in instance.events
        ],
        "users": [
            {
                "id": u.id,
                "location": list(u.location),
                "budget": u.budget,
                "name": u.name,
            }
            for u in instance.users
        ],
        "cost_model": _cost_model_to_dict(instance.cost_model),
        "utilities": instance.utility_matrix().tolist(),
    }


def _event_from_dict(data, path: str) -> Event:
    data = _as_object(data, path)
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise _invalid(f"{path}.name", f"expected a string, got {_type_name(name)}")
    start = _as_number(_require(data, "start", path), f"{path}.start")
    end = _as_number(_require(data, "end", path), f"{path}.end")
    try:
        return Event(
            id=_as_int(_require(data, "id", path), f"{path}.id", minimum=0),
            location=_as_location(_require(data, "location", path), f"{path}.location"),
            capacity=_as_int(
                _require(data, "capacity", path), f"{path}.capacity", minimum=1
            ),
            interval=TimeInterval(start, end),
            name=name,
        )
    except InvalidInstanceError:
        raise
    except (TypeError, ValueError) as exc:
        raise _invalid(path, str(exc)) from exc


def _user_from_dict(data, path: str) -> User:
    data = _as_object(data, path)
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise _invalid(f"{path}.name", f"expected a string, got {_type_name(name)}")
    try:
        return User(
            id=_as_int(_require(data, "id", path), f"{path}.id", minimum=0),
            location=_as_location(_require(data, "location", path), f"{path}.location"),
            budget=_as_number(
                _require(data, "budget", path), f"{path}.budget", minimum=0.0
            ),
            name=name,
        )
    except InvalidInstanceError:
        raise
    except (TypeError, ValueError) as exc:
        raise _invalid(path, str(exc)) from exc


def _utility_cells(rows: List) -> List[List[float]]:
    """The ``utilities`` rows checked cell by cell, naming the first
    offending cell's path."""
    return [
        [
            _as_number(cell, f"utilities[{i}][{j}]")
            for j, cell in enumerate(_as_array(row, f"utilities[{i}]"))
        ]
        for i, row in enumerate(rows)
    ]


def _utility_matrix(rows: List):
    """The ``utilities`` payload as a matrix, or a path-named error.

    Rows that are all lists of plain ``int``/``float`` cells become one
    float64 array with one NaN check; any other payload (and any array
    build that fails or holds NaN) takes :func:`_utility_cells`, so a
    rejection names its cell.  Both paths give the same matrix.
    """
    if set(map(type, rows)) <= {list} and set(
        map(type, chain.from_iterable(rows))
    ) <= {int, float}:
        try:
            matrix = np.array(rows, dtype=float)
        except (OverflowError, ValueError):  # a huge int, a ragged row
            matrix = None
        if matrix is not None and not np.isnan(matrix).any():
            return matrix
    return _utility_cells(rows)


def instance_from_dict(data) -> USEPInstance:
    """Rebuild an instance from :func:`instance_to_dict` output.

    Hardened against untrusted input: any structural defect raises
    :class:`InvalidInstanceError` with the JSON path of the offending
    value; no other exception type escapes.
    """
    data = _as_object(data, "instance")
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise InvalidInstanceError(
            f"unsupported instance format version {version!r} "
            f"(this build reads version {_FORMAT_VERSION})"
        )
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise _invalid("name", f"expected a string, got {_type_name(name)}")
    events = [
        _event_from_dict(entry, f"events[{i}]")
        for i, entry in enumerate(_as_array(_require(data, "events", "instance"), "events"))
    ]
    users = [
        _user_from_dict(entry, f"users[{i}]")
        for i, entry in enumerate(_as_array(_require(data, "users", "instance"), "users"))
    ]
    utilities = _utility_matrix(
        _as_array(_require(data, "utilities", "instance"), "utilities")
    )
    model = _cost_model_from_dict(_require(data, "cost_model", "instance"))
    try:
        return USEPInstance(events, users, model, utilities, name=name)
    except InvalidInstanceError:
        raise
    except (TypeError, ValueError, KeyError, IndexError) as exc:
        # USEPInstance cross-validates shapes/ranges; anything it trips
        # over that is not already typed is still the caller's payload.
        raise InvalidInstanceError(
            f"instance: inconsistent payload: {exc}"
        ) from exc


def save_instance(instance: USEPInstance, path: str) -> None:
    """Write an instance to a JSON file."""
    with open(path, "w") as handle:
        json.dump(instance_to_dict(instance), handle)


def load_instance(path: str) -> USEPInstance:
    """Read an instance from a JSON file."""
    with open(path) as handle:
        return instance_from_dict(json.load(handle))


# -- mutations (see repro.core.deltas) ----------------------------------


def mutation_to_dict(mutation: Mutation) -> Dict:
    """Serialise a typed mutation to its JSON wire form (``op``-tagged)."""
    if isinstance(mutation, AddUser):
        payload: Dict = {
            "op": "add_user",
            "location": [mutation.location[0], mutation.location[1]],
            "budget": mutation.budget,
            "utilities": list(mutation.utilities),
        }
        if mutation.name is not None:
            payload["name"] = mutation.name
        return payload
    if isinstance(mutation, DropUser):
        return {"op": "drop_user", "user_id": mutation.user_id}
    if isinstance(mutation, AddEvent):
        payload = {
            "op": "add_event",
            "location": [mutation.location[0], mutation.location[1]],
            "capacity": mutation.capacity,
            "start": mutation.start,
            "end": mutation.end,
            "utilities": list(mutation.utilities),
        }
        if mutation.name is not None:
            payload["name"] = mutation.name
        return payload
    if isinstance(mutation, DropEvent):
        return {"op": "drop_event", "event_id": mutation.event_id}
    if isinstance(mutation, CapacityChange):
        return {
            "op": "capacity_change",
            "event_id": mutation.event_id,
            "capacity": mutation.capacity,
        }
    if isinstance(mutation, BudgetChange):
        return {
            "op": "budget_change",
            "user_id": mutation.user_id,
            "budget": mutation.budget,
        }
    if isinstance(mutation, UtilityChange):
        return {
            "op": "utility_change",
            "event_id": mutation.event_id,
            "user_id": mutation.user_id,
            "utility": mutation.utility,
        }
    raise InvalidInstanceError(
        f"cannot serialise mutation of type {type(mutation).__name__}"
    )


def _utilities_from(data: Dict, path: str) -> Tuple[float, ...]:
    raw = _as_array(_require(data, "utilities", path), f"{path}.utilities")
    return tuple(
        _as_number(cell, f"{path}.utilities[{i}]") for i, cell in enumerate(raw)
    )


def _name_from(data: Dict, path: str) -> Optional[str]:
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise _invalid(f"{path}.name", f"expected a string, got {_type_name(name)}")
    return name


def mutation_from_dict(data, path: str = "mutation") -> Mutation:
    """Rebuild a typed mutation from :func:`mutation_to_dict` output.

    Hardened like :func:`instance_from_dict`: any structural defect
    raises :class:`InvalidInstanceError` with the JSON path of the
    offending value.  Range checks against a concrete instance (id in
    range, utility vector length) happen at *application* time in
    :func:`repro.core.deltas.apply_mutation` — the wire layer cannot
    know the target content.
    """
    data = _as_object(data, path)
    op = _require(data, "op", path)
    if not isinstance(op, str):
        raise _invalid(f"{path}.op", f"expected a string, got {_type_name(op)}")
    if op == "add_user":
        return AddUser(
            location=_as_location(_require(data, "location", path), f"{path}.location"),
            budget=_as_number(
                _require(data, "budget", path), f"{path}.budget", minimum=0.0
            ),
            utilities=_utilities_from(data, path),
            name=_name_from(data, path),
        )
    if op == "drop_user":
        return DropUser(
            user_id=_as_int(
                _require(data, "user_id", path), f"{path}.user_id", minimum=0
            )
        )
    if op == "add_event":
        return AddEvent(
            location=_as_location(_require(data, "location", path), f"{path}.location"),
            capacity=_as_int(
                _require(data, "capacity", path), f"{path}.capacity", minimum=1
            ),
            start=_as_number(_require(data, "start", path), f"{path}.start"),
            end=_as_number(_require(data, "end", path), f"{path}.end"),
            utilities=_utilities_from(data, path),
            name=_name_from(data, path),
        )
    if op == "drop_event":
        return DropEvent(
            event_id=_as_int(
                _require(data, "event_id", path), f"{path}.event_id", minimum=0
            )
        )
    if op == "capacity_change":
        return CapacityChange(
            event_id=_as_int(
                _require(data, "event_id", path), f"{path}.event_id", minimum=0
            ),
            capacity=_as_int(
                _require(data, "capacity", path), f"{path}.capacity", minimum=1
            ),
        )
    if op == "budget_change":
        return BudgetChange(
            user_id=_as_int(
                _require(data, "user_id", path), f"{path}.user_id", minimum=0
            ),
            budget=_as_number(
                _require(data, "budget", path), f"{path}.budget", minimum=0.0
            ),
        )
    if op == "utility_change":
        return UtilityChange(
            event_id=_as_int(
                _require(data, "event_id", path), f"{path}.event_id", minimum=0
            ),
            user_id=_as_int(
                _require(data, "user_id", path), f"{path}.user_id", minimum=0
            ),
            utility=_as_number(_require(data, "utility", path), f"{path}.utility"),
        )
    raise _invalid(f"{path}.op", f"unknown mutation op {op!r}")


def mutations_from_list(data, path: str = "mutations") -> List[Mutation]:
    """Decode a JSON array of mutation objects."""
    return [
        mutation_from_dict(entry, f"{path}[{i}]")
        for i, entry in enumerate(_as_array(data, path))
    ]


def save_mutation_stream(mutations: Sequence[Mutation], path: str) -> None:
    """Write mutations as JSONL — one mutation object per line."""
    with open(path, "w") as handle:
        for mutation in mutations:
            handle.write(json.dumps(mutation_to_dict(mutation)))
            handle.write("\n")


def load_mutation_stream(path: str) -> List[Mutation]:
    """Read a JSONL mutation stream (blank lines ignored)."""
    mutations: List[Mutation] = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except ValueError as exc:
                raise InvalidInstanceError(
                    f"{path}:{lineno}: not valid JSON: {exc}"
                ) from exc
            mutations.append(mutation_from_dict(data, f"{path}:{lineno}"))
    return mutations


def canonical_planning_bytes(planning: Planning) -> bytes:
    """Canonical byte encoding of a planning, for bit-identity checks.

    Sorted keys, compact separators, ``repr``-exact floats (json uses
    ``repr`` for doubles, so two plannings differing in any utility
    bit encode differently).  The churn differential fuzzer and the
    bench churn scale compare delta re-solves against cold solves on
    these bytes.
    """
    payload = {
        "schedules": {
            str(user_id): list(event_ids)
            for user_id, event_ids in sorted(planning.as_dict().items())
        },
        "total_utility": planning.total_utility(),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def planning_to_dict(planning: Planning) -> Dict:
    """Serialise a planning (schedules only; pair with its instance)."""
    return {
        "format_version": _FORMAT_VERSION,
        "instance_name": planning.instance.name,
        "total_utility": planning.total_utility(),
        "schedules": {
            str(user_id): event_ids
            for user_id, event_ids in planning.as_dict().items()
        },
    }


def planning_from_serialised(instance: USEPInstance, data: Dict) -> Planning:
    """Rebuild (and re-validate feasibility of) a recorded planning."""
    data = _as_object(data, "planning")
    raw = _as_object(_require(data, "schedules", "planning"), "planning.schedules")
    schedules: Dict[int, List[int]] = {}
    for user_id, event_ids in raw.items():
        try:
            key = int(user_id)
        except (TypeError, ValueError) as exc:
            raise _invalid(
                f"planning.schedules[{user_id!r}]",
                "keys must be integer user ids",
            ) from exc
        schedules[key] = [
            _as_int(ev, f"planning.schedules[{user_id!r}][{k}]", minimum=0)
            for k, ev in enumerate(
                _as_array(event_ids, f"planning.schedules[{user_id!r}]")
            )
        ]
    return planning_from_dict(instance, schedules)


def save_planning(planning: Planning, path: str) -> None:
    """Write a planning to a JSON file."""
    with open(path, "w") as handle:
        json.dump(planning_to_dict(planning), handle)


def load_planning(instance: USEPInstance, path: str) -> Planning:
    """Read a planning from a JSON file, rebinding it to ``instance``."""
    with open(path) as handle:
        return planning_from_serialised(instance, json.load(handle))
