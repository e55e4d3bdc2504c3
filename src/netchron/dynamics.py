"""Node-state dynamics on a network and their steady states.

Three synchronous update rules are provided: an epidemic
infection-recovery process, a gene-regulation rule with saturating
activation, and an opinion pull toward the neighborhood mean. All are
iterated until the step-to-step change is small or a step budget runs
out. A separate exact relaxation utility moves a state toward a fixed
target along a staged path, used to demonstrate that the final state
depends on the order in which structure appeared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BadSpec, DimensionMismatch, NumericalBlowup, ParseError, StageMismatch
from .graph import build_network, neighbor_sum
from .serialize import (coerce_fields, dump_json, finite_float, integer, kind_field,
                        load_json, read_table, write_table)

CONVERGENCE_TOL = 1e-6
MAX_STEPS = 1000
BLOWUP_LIMIT = 1e12
STATE_HEADER = "node_id,value"


class DynamicsKind(str, Enum):
    EPIDEMIC = "sis"
    GENE = "gene"
    OPINION = "opinion"


@dataclass(frozen=True)
class DynamicsSpec:
    """Parameters of one dynamics run.

    Per-node arrays are required for the kinds that use them:
    basal/saturating gains for GENE, pull rates for OPINION. The
    epidemic kind uses the two scalars infection/recovery. Building a
    spec coerces each field by its kind; a malformed or out-of-range
    value, a missing array, or an array holding a non-number, NaN or
    infinity raises BadSpec.
    """

    kind: DynamicsKind = kind_field(DynamicsKind)
    infection: float = kind_field(finite_float, 0.4)
    recovery: float = kind_field(finite_float, 0.3)
    hill_exponent: float = kind_field(finite_float, 2.0)
    basal: np.ndarray | None = None
    gain: np.ndarray | None = None
    pull: np.ndarray | None = None
    tol: float = kind_field(finite_float, CONVERGENCE_TOL)
    max_steps: int = kind_field(integer, MAX_STEPS)

    def __post_init__(self):
        coerce_fields(self, BadSpec)
        if self.tol <= 0 or self.max_steps < 1:
            raise BadSpec("tol must be > 0 and max_steps >= 1")
        if self.kind is DynamicsKind.EPIDEMIC and not (
                0.0 <= self.infection <= 1.0 and 0.0 <= self.recovery <= 1.0):
            raise BadSpec("infection and recovery must lie in [0, 1]")
        if self.kind is DynamicsKind.GENE and self.hill_exponent <= 1:
            raise BadSpec("hill exponent must exceed 1")
        for name in _RULES[self.kind][1]:
            if getattr(self, name) is None:
                raise BadSpec("%s must be a per-node array" % name)
        for name in ("basal", "gain", "pull"):
            if getattr(self, name) is not None:
                _check_finite(getattr(self, name), name)


def _check_finite(values, name):
    """Raise BadSpec unless values are numbers, all finite."""
    try:
        finite = np.isfinite(np.asarray(values, dtype=np.float64)).all()
    except (TypeError, ValueError):
        raise BadSpec("%s must hold numbers" % name) from None
    if not finite:
        raise BadSpec("%s holds a non-finite value" % name)


def _check_node_arrays(net, spec):
    """Raise BadSpec unless each array spec's kind reads has one value per node."""
    for name in _RULES[spec.kind][1]:
        if np.shape(getattr(spec, name)) != (net.node_count,):
            raise BadSpec("%s must be a per-node array" % name)


@dataclass(frozen=True)
class SteadyState:
    """Final state of a dynamics run."""

    values: np.ndarray
    converged: bool
    steps: int
    residual: float


def sample_dynamics_params(kind, node_count, seed):
    """Draw the per-node parameters a dynamics kind needs.

    Gene basal levels are uniform on [0, 1] and gains uniform on
    [0.5, 1.5]. Opinion pull rates are uniform over the union
    [1, 1.5] plus [3.5, 4], equal density on both halves.
    """
    kind = DynamicsKind(kind)
    rng = np.random.default_rng(seed)
    if kind is DynamicsKind.EPIDEMIC:
        return DynamicsSpec(kind=kind)
    if kind is DynamicsKind.GENE:
        basal = rng.random(node_count)
        gain = rng.uniform(0.5, 1.5, node_count)
        return DynamicsSpec(kind=kind, basal=basal, gain=gain)
    low_half = rng.random(node_count) < 0.5
    offset = rng.random(node_count) * 0.5
    pull = np.where(low_half, 1.0 + offset, 3.5 + offset)
    return DynamicsSpec(kind=kind, pull=pull)


def _neighbor_prod(net, x):
    out = np.ones(net.node_count)
    if net.adj_indices.size:
        nonempty = np.flatnonzero(net.degrees)
        starts = net.adj_indptr[nonempty]
        out[nonempty] = np.multiply.reduceat(x[net.adj_indices], starts)
    return out


def _update_epidemic(net, spec, x):
    # Escape probability: no neighbor transmits, independent contacts.
    escape = _neighbor_prod(net, 1.0 - spec.infection * x)
    return (1.0 - spec.recovery) * x + (1.0 - x) * (1.0 - escape)


def _update_gene(net, spec, x):
    total_input = neighbor_sum(net, x)
    powered = total_input ** spec.hill_exponent
    return np.asarray(spec.basal) + np.asarray(spec.gain) * powered / (1.0 + powered)


def _update_opinion(net, spec, x):
    mean = np.where(net.degrees > 0, neighbor_sum(net, x) / net.safe_degrees, x)
    return x + np.asarray(spec.pull) * (mean - x)


# Each kind's update rule and the per-node arrays it reads.
_RULES = {
    DynamicsKind.EPIDEMIC: (_update_epidemic, ()),
    DynamicsKind.GENE: (_update_gene, ("basal", "gain")),
    DynamicsKind.OPINION: (_update_opinion, ("pull",)),
}


def step_dynamics(net, spec, x):
    """One synchronous update of every node."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.node_count,):
        raise DimensionMismatch("state length != node count")
    _check_node_arrays(net, spec)
    return _RULES[spec.kind][0](net, spec, x)


def simulate(net, spec, seed=0, initial=None):
    """Iterate a dynamics until the L2 step change drops below tol.

    The initial state defaults to uniform random values in [0, 1)
    drawn from `seed`; a given one must be finite (else BadSpec). A
    step whose state exceeds a large magnitude or is not finite raises
    NumericalBlowup rather than returning garbage.
    """
    _check_node_arrays(net, spec)
    if initial is None:
        x = np.random.default_rng(seed).random(net.node_count)
    else:
        x = np.asarray(initial, dtype=np.float64).copy()
        if x.shape != (net.node_count,):
            raise DimensionMismatch("initial state length != node count")
        _check_finite(x, "initial state")
    steps = 0
    residual = math.inf
    converged = False
    for steps in range(1, spec.max_steps + 1):
        nxt = step_dynamics(net, spec, x)
        # Written so that NaN, which compares false, trips it too.
        if not np.abs(nxt).max() <= BLOWUP_LIMIT:
            raise NumericalBlowup("state is not finite or exceeded %g" % BLOWUP_LIMIT)
        residual = float(np.linalg.norm(nxt - x))
        x = nxt
        if residual < spec.tol:
            converged = True
            break
    return SteadyState(values=x, converged=converged, steps=steps, residual=residual)


def relax_stages(path, targets, initial):
    """Exact relaxation toward a fixed target over staged durations.

    path is a sequence of (network, duration) stages and targets the
    matching per-stage target states. Within one stage the state decays
    exponentially toward the target: after duration d the gap shrinks
    by exp(-d). Returns the list of states after each stage.
    """
    path = list(path)
    targets = list(targets)
    if len(path) != len(targets):
        raise StageMismatch(
            "%d stages but %d targets" % (len(path), len(targets))
        )
    x = np.asarray(initial, dtype=np.float64).copy()
    out = []
    for (net, duration), target in zip(path, targets):
        if not duration > 0:
            raise BadSpec("stage duration must be positive, got %r" % (duration,))
        tv = target.values if isinstance(target, SteadyState) else np.asarray(target)
        tv = tv.astype(np.float64)
        if tv.shape != x.shape:
            raise DimensionMismatch("target shape != state shape")
        x = tv + math.exp(-duration) * (x - tv)
        out.append(x.copy())
    return out


PATH_DEPENDENCE_THRESHOLD = 1e-6


def path_dependence_demo(kind=DynamicsKind.EPIDEMIC, seed=0, duration=1.0,
                         node_count=4):
    """Same final graph, two insertion orders, different final states.

    The graph gains two disjoint edges among its first four nodes
    (any further nodes stay isolated spectators). Under one order the
    first edge appears first, under the other the second does; the
    final topology is identical. The state relaxes exactly toward the
    steady state of each intermediate graph for `duration`, so any
    difference between the two final states is purely an order effect.
    Returns a report dict including the L2 difference of the finals
    and the full per-stage trajectories for plotting.
    """
    kind = DynamicsKind(kind)
    n = int(node_count)
    if n < 4:
        raise BadSpec("the demo needs at least 4 nodes, got %d" % n)
    full_edges = [(0, 1), (2, 3)]
    orders = {"first_edge_early": [0, 1], "second_edge_early": [1, 0]}
    initial = np.random.default_rng(seed).random(n)
    spec = sample_dynamics_params(kind, n, seed)
    finals = {}
    detail = {}
    for name, order in orders.items():
        stages = []
        targets = []
        for count in (1, 2):
            edges = [full_edges[k] for k in order[:count]]
            net_k = build_network(n, edges)
            stages.append((net_k, duration))
            targets.append(simulate(net_k, spec, initial=initial))
        states = relax_stages(stages, targets, initial)
        finals[name] = states[-1]
        detail[name] = {
            "edge_sequence": [list(full_edges[k]) for k in order],
            "stage_states": [s.tolist() for s in states],
            "final_state": finals[name].tolist(),
        }
    names = list(orders)
    diff = float(np.linalg.norm(finals[names[0]] - finals[names[1]]))
    return {
        "kind": kind.value,
        "seed": int(seed),
        "duration": float(duration),
        "node_count": n,
        "initial_state": initial.tolist(),
        "orders": detail,
        "difference_norm": diff,
        "difference_threshold": PATH_DEPENDENCE_THRESHOLD,
        "order_dependent": diff > PATH_DEPENDENCE_THRESHOLD,
    }


def write_steady_state(state, path, kind=None, seed=None):
    """CSV of node values plus a JSON sidecar with run metadata.

    The sidecar lands at `<path>.meta.json`.
    """
    values = np.asarray(state.values, dtype=np.float64).tolist()
    write_table(path, STATE_HEADER, enumerate(values))
    meta = {
        "converged": bool(state.converged),
        "steps": int(state.steps),
        "residual": float(state.residual),
    }
    if kind is not None:
        meta["kind"] = DynamicsKind(kind).value
    if seed is not None:
        meta["seed"] = int(seed)
    dump_json(meta, str(path) + ".meta.json")


def load_steady_state(path):
    """Read a steady-state CSV back; returns (values, metadata or None).

    Every value must be finite: NaN or infinity raises ParseError. The
    metadata is None only when the sidecar does not exist; any other
    failure to read it raises.
    """
    values = []
    for lineno, fields in read_table(path, STATE_HEADER, 2):
        try:
            idx = int(fields[0])
            val = float(fields[1])
        except ValueError as exc:
            raise ParseError("%s:%d: %s" % (path, lineno, exc)) from None
        if not math.isfinite(val):
            raise ParseError(
                "%s:%d: value %s is not finite" % (path, lineno, fields[1])
            )
        if idx != len(values):
            raise ParseError("%s:%d: node ids must be consecutive" % (path, lineno))
        values.append(val)
    try:
        meta = load_json(str(path) + ".meta.json")
    except FileNotFoundError:
        meta = None
    return np.asarray(values, dtype=np.float64), meta
