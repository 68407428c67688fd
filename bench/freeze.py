"""Recompute frozen.json: the answers no cheap independent check covers.

    python3 bench/freeze.py

The cases are drawn with a fixed seed, so rerunning the script at another
commit recomputes the same cases with that commit's library; a diff of
frozen.json then shows every answer that changed.  The committed values
were computed by the library as of the commit that added the benchmark.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from kostant import (  # noqa: E402
    RayFitFailure,
    kostant_partition,
    multiplicity,
    multiplicity_polynomial,
    rho,
    tensor_polynomial,
    tensor_product,
    valid_couples,
)
from kostant.vectors import vec_add, vec_scale  # noqa: E402

from workloads import (  # noqa: E402
    FROZEN,
    batch_plan,
    canonical,
    checked_without_freezing,
    cone_vector,
    dominant,
    frozen_key,
    lower,
    small_cone_vector,
    tensor_triple,
)


def split_cone_vector(r: int, roots: int, big: int, rng) -> list:
    """A cone vector whose first block of entries sums to zero (not regular), r >= 3."""
    s = rng.randint(1, r - 2)
    return cone_vector(s, roots, big, rng) + cone_vector(r - s - 1, roots, big, rng)


def _poly_text(fit) -> str:
    return ",".join(str(c) for c in fit.coefficients)


def _tensor_case(case_id, lam, mu, nu, poly=False):
    weights = [canonical(w) for w in (lam, mu, nu)]
    value = _poly_text(tensor_polynomial(*weights)) if poly else str(tensor_product(*weights))
    case = {"lam": lam, "mu": mu, "nu": nu, "value": value}
    return case if case_id is None else {"id": case_id, **case}


def _partition_case(a):
    return {"a": a, "value": str(kostant_partition(a))}


def _rank3_rays(rng, want):
    rays = []
    while len(rays) < want:
        lam, mu, nu = tensor_triple(3, 2, 1, rng)
        fit = tensor_polynomial(*(canonical(w) for w in (lam, mu, nu)))
        if not isinstance(fit, RayFitFailure) and fit.degree > 0:
            rays.append({"lam": lam, "mu": mu, "nu": nu, "value": _poly_text(fit)})
    return rays


# Rank-6 partition arguments with entries near 10^9, two regular and three
# not (those take the deformation path).  Their answers take about 4 to 30 ms,
# so the median query of a cold-heavy pass is always the same one of them.
PARTITIONS6 = (
    [211835078, 222539621, 248538982, 140066726, -66316472, 7006499, -763670434],
    [441665197, 45895999, 281734283, -193956100, -100973138, 101863686, -576229927],
    [260966522, 367783775, -628750297, 675831877, -233140274, 25227107, -467918710],
    [651388457, -273105694, -378282763, 275970908, 316467024, 313112596, -905550528],
    [227145575, 812205882, -1039351457, 216327409, 560257043, -148982699, -627601753],
)


def _pooled_tensors(rng, want):
    """Rank-4 tensor cases with >= 24 couples: the library pools each call."""
    cases = []
    while len(cases) < want:
        lam, mu, nu = tensor_triple(4, 2, 3, rng)
        rho4 = rho(4)
        u1, u2 = (vec_add(canonical(w), rho4) for w in (lam, mu))
        target = vec_add(canonical(nu), vec_scale(rho4, 2))
        if len(valid_couples(u1, u2, target)) >= 24:
            cases.append(_tensor_case(None, lam, mu, nu))
    return cases


def freeze() -> dict:
    rng = random.Random(0)
    return {
        "cold_heavy": {
            "tensor": [
                _tensor_case("tensor5", [2] * 5, [2] * 5, [2] * 5),
                _tensor_case("tensor4", [3] * 4, [3] * 4, [0] * 4),
                _tensor_case("tensor4b", [2] * 4, [2] * 4, [2] * 4),
            ],
            "partitions6": [_partition_case(a) for a in PARTITIONS6],
        },
        "ray_fit": {
            "tensor_poly": [
                _tensor_case("tensor4_ray", [1] * 4, [1] * 4, [1] * 4, poly=True),
                _tensor_case("tensor4_ray_b", [2, 1, 1, 2], [1, 2, 2, 1], [2] * 4, poly=True),
            ],
            "mult_poly": [
                {"id": f"mult4_ray_{c}", "lam": [c] * 4, "mu": [0] * 4,
                 "value": _poly_text(multiplicity_polynomial(canonical([c] * 4), canonical([0] * 4)))}
                for c in (1, 2)
            ],
            "rank3_tensor_rays": _rank3_rays(rng, 8),
        },
        "batch": {
            frozen_key(command, r, size): _batch_cases(command, r, size, count, rng)
            for (command, r, size), count in batch_plan().items()
            if not checked_without_freezing(command, r, size)
        },
    }


def _batch_cases(command, r, size, count, rng):
    if command == "kostant" and size == "small":
        return [_partition_case(small_cone_vector(r, rng)) for _ in range(count)]
    if command == "kostant":
        return [_partition_case((split_cone_vector if i % 4 == 3 else cone_vector)(
            r, r + 2, 10 ** 6 // (r + 2), rng)) for i in range(count)]
    if command == "mult":
        return [
            {"lam": lam, "mu": mu, "value": str(multiplicity(canonical(lam), canonical(mu)))}
            for lam, mu in ((lam, lower(lam, 1, rng)) for lam in (dominant(r, 1, rng) for _ in range(count)))
        ]
    if size == "pooled":
        return _pooled_tensors(rng, count)
    return [_tensor_case(None, *tensor_triple(r, 1, 1, rng)) for _ in range(count)]


def write(data) -> None:
    """frozen.json with one case a line."""
    lines = ["{"]
    for i, (section, groups) in enumerate(data.items()):
        lines.append(f" {json.dumps(section)}: {{")
        for j, (group, cases) in enumerate(groups.items()):
            lines.append(f"  {json.dumps(group)}: [")
            lines += [f"   {json.dumps(case)}" + ("," if k < len(cases) - 1 else "") for k, case in enumerate(cases)]
            lines.append("  ]" + ("," if j < len(groups) - 1 else ""))
        lines.append(" }" + ("," if i < len(data) - 1 else ""))
    lines.append("}")
    with open(FROZEN, "w") as fh:
        fh.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    write(freeze())
