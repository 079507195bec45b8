"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of its seed (``random.Random``, no numpy),
so one seed always yields byte-identical problem and model files.  Each item
is ``{"name", "command", "payload"}``: ``command`` is the ``polyvar``
sub-command that consumes ``payload`` once it is written as a JSON file.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

SCHEMA_VERSION = "1"

BOUND_SMALL_ITEMS = 200
# (n, d): K = (d+1)**n vertex classes, from 256 to 1024.
DENSE_SHAPES = ((4, 3), (3, 6), (4, 4), (6, 2), (5, 3))
FHN_UNIFORM_FACETS = (8, 32, 64)
FHN_ROTATED_FACETS = 6


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{int(seed)}")


def _poly_terms(rng, degrees, density):
    """Random coefficients on a subset of the exponent grid; every per-variable
    degree is attained so the file's degrees are exactly ``degrees``."""
    n = len(degrees)
    terms = {}
    for exps in itertools.product(*(range(d + 1) for d in degrees)):
        if rng.random() < density:
            terms[exps] = rng.uniform(-2.0, 2.0)
    for k, d in enumerate(degrees):
        pure = tuple(d if j == k else 0 for j in range(n))
        terms.setdefault(pure, rng.uniform(-2.0, 2.0))
    return [{"exponents": list(e), "coefficient": c} for e, c in sorted(terms.items())]


def _bound_problem(rng, degrees, n_ineq, n_eq, density):
    """A problem whose region contains the interior point ``x0`` with positive
    slack on every inequality and exactly on every equality.  Returns the
    payload and ``x0``; only the payload reaches the program."""
    n = len(degrees)
    lower = [rng.uniform(-2.0, 0.0) for _ in range(n)]
    width = [rng.uniform(1.0, 2.0) for _ in range(n)]
    x0 = [lo + w * rng.uniform(0.25, 0.75) for lo, w in zip(lower, width)]
    inequalities = []
    for _ in range(n_ineq):
        a = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        reach = sum(abs(ak) * wk for ak, wk in zip(a, width))
        b = sum(ak * xk for ak, xk in zip(a, x0)) + rng.uniform(0.05, 0.5) * reach
        if rng.random() < 0.5:
            inequalities.append({"a": a, "op": "<=", "b": b})
        else:
            inequalities.append({"a": [-ak for ak in a], "op": ">=", "b": -b})
    equalities = []
    for _ in range(n_eq):
        c = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        equalities.append({"c": c, "d": sum(ck * xk for ck, xk in zip(c, x0))})
    payload = {
        "schema_version": SCHEMA_VERSION,
        "polynomial": _poly_terms(rng, degrees, density),
        "rectangle": {"lower": lower, "upper": [lo + w for lo, w in zip(lower, width)]},
    }
    if inequalities:
        payload["inequalities"] = inequalities
    if equalities:
        payload["equalities"] = equalities
    return payload, x0


def bound_small(seed: int) -> list:
    """Many small ``bound`` problems: n in {1,2,3}, per-variable degree 2-4,
    0-5 inequalities, 0-1 equality.

    Dimension and constraint counts cycle through every combination rather
    than being drawn, so each seed has the same mix of problem sizes and
    only the coefficients, boxes and constraint directions change.
    """
    rng = _rng(seed, "bound-small")
    items = []
    for i in range(BOUND_SMALL_ITEMS):
        n, n_ineq, n_eq = 1 + i % 3, (i // 3) % 6, (i // 18) % 2
        degrees = tuple(rng.randint(2, 4) for _ in range(n))
        payload, x0 = _bound_problem(rng, degrees, n_ineq, n_eq, 0.5)
        items.append({"name": f"small-{i:03d}", "command": "bound", "payload": payload, "x0": x0})
    return items


def _scaled(terms, rng) -> list:
    """Each coefficient times ``1 + U(-1%, 1%)``."""
    return [{**t, "coefficient": t["coefficient"] * (1.0 + rng.uniform(-0.01, 0.01))} for t in terms]


def bound_dense(seed: int) -> list:
    """Dense ``bound`` problems, 4 inequalities and 1 equality, one per shape.

    The problems come from a fixed family and the seed perturbs their
    coefficients: a fresh random dense problem can take twice the simplex
    pivots of another of the same shape, which a run of a few such problems
    cannot average out.
    """
    family = random.Random("bound-dense-family")
    rng = _rng(seed, "bound-dense")
    items = []
    for n, d in DENSE_SHAPES:
        payload, x0 = _bound_problem(family, (d,) * n, 4, 1, 0.3)
        payload["polynomial"] = _scaled(payload["polynomial"], rng)
        items.append({"name": f"dense-n{n}d{d}", "command": "bound", "payload": payload, "x0": x0})
    return items


def _perturbed(model: dict, rng) -> dict:
    return {**model, "field": [_scaled(component, rng) for component in model["field"]]}


def _rotated_normals(m: int, phase: float) -> list:
    angles = [2.0 * math.pi * k / m + phase for k in range(m)]
    return [[math.cos(a), math.sin(a)] for a in angles]


def synth(seed: int, models_dir) -> list:
    """Perturbed bundled models for ``synthesize``: phytoplankton (3-D, 18
    facets), FitzHugh-Nagumo with uniform 8/32/64-facet templates, and
    FitzHugh-Nagumo with a 6-facet template rotated by a seeded phase, which
    stalls after the containment bisection of its offset caps."""
    models_dir = Path(models_dir)
    rng = _rng(seed, "synth")
    plankton = json.loads((models_dir / "phytoplankton.json").read_text(encoding="utf-8"))
    fhn = json.loads((models_dir / "fitzhugh_nagumo.json").read_text(encoding="utf-8"))
    items = [{"name": "plankton", "command": "synthesize", "payload": _perturbed(plankton, rng)}]
    for m in FHN_UNIFORM_FACETS:
        model = _perturbed(fhn, rng)
        model["template"] = {"normals": _rotated_normals(m, 0.0)}
        items.append({"name": f"fhn-uniform{m}", "command": "synthesize", "payload": model})
    model = _perturbed(fhn, rng)
    # Over the full 60-degree range the stalled state swings with the phase
    # (7 to 13 iterations, facet gaps 0.33 to 0.76); 0 to 6 degrees keeps
    # the stall and its containment bisection comparable across seeds.
    phase = rng.uniform(0.0, math.radians(6.0))
    model["template"] = {"normals": _rotated_normals(FHN_ROTATED_FACETS, phase)}
    items.append({"name": f"fhn-rotated{FHN_ROTATED_FACETS}", "command": "synthesize", "payload": model})
    return items


def generate(workload: str, seed: int, models_dir) -> list:
    if workload == "bound-small":
        return bound_small(seed)
    if workload == "bound-dense":
        return bound_dense(seed)
    if workload == "synth":
        return synth(seed, models_dir)
    raise ValueError(f"unknown workload {workload!r}")


def write_items(items: list, directory) -> list:
    """Write each payload as ``<name>.json`` and return the paths in order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for item in items:
        path = directory / f"{item['name']}.json"
        path.write_text(json.dumps(item["payload"], indent=1, sort_keys=True) + "\n", encoding="utf-8")
        paths.append(path)
    return paths
