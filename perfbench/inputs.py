"""Seeded inputs for the benchmark, built from numpy alone.

The benchmark makes its own instances and mutation streams instead of
calling ``repro.datagen``: a change to the program's generators must not
change what the benchmark measures, and generating without importing
the program keeps import time inside ``setup_s`` where it belongs.

Instances come out in the program's JSON wire format (``repro.io``
format version 1), so the program sees nothing but the generated
inputs.  The families follow the paper's synthetic set-up (Table 7):
integer lattice locations on a 100 x 100 grid, Manhattan travel costs,
uniform utilities in [0, 1), uniform capacities of a given mean, a
25% target conflict ratio and budget factor ``f_b = 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

GRID = 100
HORIZON = 10_000
CONFLICT_RATIO = 0.25
BUDGET_FACTOR = 2.0
#: Seed of the fixed cities: the long-lived instances that churn and
#: the district layouts of the clustered family.  They stay fixed so a
#: run's median does not move with the city a seed happens to draw;
#: the seed draws the traffic (mutations, fresh instances, populations).
CITY_SEED = 2015
#: Churn-ledger mix of user-level mutations: (kind, probability).
CHURN_MIX = (
    ("utility_change", 0.65),
    ("budget_change", 0.15),
    ("add_user", 0.10),
    ("drop_user", 0.10),
)


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator for one named stream of one seed."""
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def _intervals(rng: np.random.Generator, num_events: int) -> List[Tuple[int, int]]:
    """Fixed-duration intervals whose expected overlap ratio is 25%."""
    x = 1.0 - math.sqrt(1.0 - CONFLICT_RATIO)
    duration = max(int(round(x * HORIZON / (1.0 + x))), 1)
    starts = np.rint(rng.uniform(0.0, 1.0, num_events) * (HORIZON - duration))
    return [(int(s), int(s) + duration) for s in starts]


def _budgets(
    rng: np.random.Generator, user_locs: np.ndarray, event_locs: np.ndarray
) -> np.ndarray:
    """Section 5.1's rule: ``U[2 min_v d(u,v), that + 2 mid f_b]``."""
    dists = np.abs(user_locs[:, None, :] - event_locs[None, :, :]).sum(axis=2)
    base = 2.0 * dists.min(axis=1)
    ee = np.abs(event_locs[:, None, :] - event_locs[None, :, :]).sum(axis=2)
    off = ee[~np.eye(len(event_locs), dtype=bool)]
    mid = float(off.max() + off.min()) / 2.0 if off.size else 0.0
    return np.floor(rng.uniform(base, base + 2.0 * mid * BUDGET_FACTOR))


@dataclass
class Drawn:
    """One generated instance as numpy arrays (``mu`` is ``|V| x |U|``)."""

    name: str
    event_locs: np.ndarray
    intervals: List[Tuple[int, int]]
    capacities: np.ndarray
    user_locs: np.ndarray
    budgets: np.ndarray
    mu: np.ndarray

    def to_wire(self) -> Dict:
        """The instance in the program's JSON wire format."""
        return {
            "format_version": 1,
            "name": self.name,
            "events": [
                {
                    "id": i,
                    "location": [int(x), int(y)],
                    "capacity": int(cap),
                    "start": start,
                    "end": end,
                    "name": None,
                }
                for i, ((x, y), cap, (start, end)) in enumerate(
                    zip(self.event_locs, self.capacities, self.intervals)
                )
            ],
            "users": [
                {"id": u, "location": [int(x), int(y)], "budget": int(b), "name": None}
                for u, ((x, y), b) in enumerate(zip(self.user_locs, self.budgets))
            ],
            "cost_model": {
                "type": "grid", "metric": "manhattan", "speed": None, "integral": True,
            },
            "utilities": self.mu.tolist(),
        }

    def bound(self) -> float:
        return capacity_bound(self.mu, self.capacities)


def uniform_instance(
    seed: int, stream: int, num_events: int, num_users: int, mean_capacity: int
) -> Drawn:
    """A synthetic-uniform instance (locations uniform on the grid)."""
    rng = rng_for(seed, stream)
    event_locs = rng.integers(0, GRID + 1, size=(num_events, 2))
    user_locs = rng.integers(0, GRID + 1, size=(num_users, 2))
    intervals = _intervals(rng, num_events)
    capacities = rng.integers(1, 2 * mean_capacity, size=num_events)
    mu = rng.uniform(0.0, 1.0, size=(num_events, num_users))
    budgets = _budgets(rng, user_locs, event_locs)
    return Drawn(
        f"bench-uniform-s{seed}-{stream}",
        event_locs, intervals, capacities, user_locs, budgets, mu,
    )


def clustered_instance(
    seed: int,
    stream: int,
    num_events: int,
    num_users: int,
    mean_capacity: int,
    districts: int = 4,
) -> Drawn:
    """Gaussian districts shared by venues and homes; interest decays
    linearly to zero at a district radius, so most users' candidates
    sit in their home district (the geography partitioning is for).

    The district centres come from ``stream`` alone, not from ``seed``:
    how much districts overlap sets how many users the cut replicates,
    which moves an op's cost by 2x, so every seed sees the same set of
    city layouts and draws its own venues, homes, utilities and budgets.
    """
    centres = rng_for(CITY_SEED, stream).uniform(
        0.15 * GRID, 0.85 * GRID, size=(districts, 2)
    )
    rng = rng_for(seed, stream)

    def points(count: int, spread: float) -> np.ndarray:
        home = rng.integers(0, districts, size=count)
        pts = centres[home] + rng.normal(0.0, spread, size=(count, 2))
        return np.clip(np.rint(pts), 0, GRID).astype(int)

    event_locs = points(num_events, 6.0)
    user_locs = points(num_users, 10.0)
    intervals = _intervals(rng, num_events)
    capacities = rng.integers(1, 2 * mean_capacity, size=num_events)
    radius = GRID / (2 * districts)
    dists = np.abs(event_locs[:, None, :] - user_locs[None, :, :]).sum(axis=2)
    mu = rng.uniform(0.0, 1.0, size=(num_events, num_users))
    mu = mu * np.maximum(0.0, 1.0 - dists / radius)
    budgets = _budgets(rng, user_locs, event_locs)
    return Drawn(
        f"bench-clustered-s{seed}-{stream}",
        event_locs, intervals, capacities, user_locs, budgets, mu,
    )


def capacity_bound(mu: np.ndarray, capacities: np.ndarray) -> float:
    """``UB = sum_v (sum of the c_v largest mu(v, .))``.

    Every event hosts at most ``c_v`` users and every arranged pair
    contributes its ``mu(v, u)``, so no feasible planning beats this.
    Non-positive utilities are never arranged, so they count as 0.
    """
    mu = np.maximum(np.asarray(mu, dtype=float), 0.0)
    total = 0.0
    num_users = mu.shape[1] if mu.ndim == 2 else 0
    for row, cap in zip(mu, capacities):
        take = min(int(cap), num_users)
        if take <= 0:
            continue
        if take < num_users:
            row = np.partition(row, num_users - take)[num_users - take:]
        total += float(row.sum())
    return total


class ChurnMirror:
    """The benchmark's own copy of a churned instance's content.

    It draws user-level mutations (wire dicts, churn-ledger mix) from a
    seeded stream and applies them to its numpy copy, so the capacity
    bound of every version is known without asking the program.
    """

    def __init__(self, drawn: Drawn, seed: int, stream: int):
        self.rng = rng_for(seed, stream)
        self.mu = drawn.mu.copy()
        self.capacities = drawn.capacities.copy()
        self.event_locs = drawn.event_locs.copy()
        self.user_locs = drawn.user_locs.copy()
        self.budgets = drawn.budgets.astype(float)
        self._kinds = [kind for kind, _ in CHURN_MIX]
        self._probs = [p for _, p in CHURN_MIX]

    @property
    def num_users(self) -> int:
        return self.mu.shape[1]

    def bound(self) -> float:
        return capacity_bound(self.mu, self.capacities)

    def draw(self) -> Dict:
        """Draw one mutation, apply it to the mirror, return its wire form."""
        rng = self.rng
        kind = self._kinds[int(rng.choice(len(self._kinds), p=self._probs))]
        if kind == "drop_user" and self.num_users <= 1:
            kind = "utility_change"
        if kind == "utility_change":
            event_id = int(rng.integers(0, self.mu.shape[0]))
            user_id = int(rng.integers(0, self.num_users))
            utility = float(rng.uniform(0.0, 1.0))
            self.mu[event_id, user_id] = utility
            return {"op": kind, "event_id": event_id, "user_id": user_id,
                    "utility": utility}
        if kind == "budget_change":
            user_id = int(rng.integers(0, self.num_users))
            budget = float(np.floor(self.budgets[user_id] * rng.uniform(0.5, 1.5)))
            self.budgets[user_id] = budget
            return {"op": kind, "user_id": user_id, "budget": budget}
        if kind == "add_user":
            loc = rng.integers(0, GRID + 1, size=2)
            base = 2.0 * float(np.abs(self.event_locs - loc).sum(axis=1).min())
            budget = float(np.floor(base + rng.uniform(0.0, 2.0 * GRID * BUDGET_FACTOR)))
            column = rng.uniform(0.0, 1.0, size=self.mu.shape[0])
            self.mu = np.concatenate([self.mu, column[:, None]], axis=1)
            self.user_locs = np.vstack([self.user_locs, loc])
            self.budgets = np.append(self.budgets, budget)
            return {"op": kind, "location": [int(loc[0]), int(loc[1])],
                    "budget": budget, "utilities": column.tolist()}
        user_id = int(rng.integers(0, self.num_users))
        self.mu = np.delete(self.mu, user_id, axis=1)
        self.user_locs = np.delete(self.user_locs, user_id, axis=0)
        self.budgets = np.delete(self.budgets, user_id)
        return {"op": kind, "user_id": user_id}
