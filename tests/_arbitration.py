"""Empirical selection of the two sign conventions the alternating sums need.

Two parities are plausible for the per-order sign of the residue sum (the
descent count or the inversion count of the order), and two readings are
plausible for the couple sign of Steinberg's tensor sum (the product of the
two signatures, or the parity of the product of the two lengths).  All four
candidates live here and nowhere else.  The engine ships the surviving
residue sign, the descent parity carried by residues._special_orders; its
tensor coefficients are a Brauer-Klimyk sum with the single sign sign(w),
so Steinberg's couple terms (_couple_terms) are built here only, to be
weighed.  Each case's terms are computed once, as (the permutations a sign
reads, the term's unsigned value), and weighed by each candidate in turn
against the brute-force references on exhaustive small boxes; exactly one
candidate of each pair survives.  The suite's sign_gates fixture runs this
procedure and writes the outcome to artifacts/sign_arbitration.json.
"""

from __future__ import annotations

import json
from itertools import product
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from kostant.formulas import _ints, _plus_rho
from kostant.permsearch import valid_couples
from kostant.permutations import Permutation
from kostant.reference import kostant_partition_bruteforce, tensor_bruteforce_lr
from kostant.residues import _exponents, iterated_residue, kostant_partition, special_permutations
from kostant.vectors import DominantWeight, deform, from_fundamental, in_positive_cone, is_regular, weight_triple


def descent_sign(w: Permutation) -> int:
    return -1 if w.descents % 2 else 1


def inversion_sign(w: Permutation) -> int:
    return w.signature


def signature_product(w1: Permutation, w2: Permutation) -> int:
    return w1.signature * w2.signature


def length_product_sign(w1: Permutation, w2: Permutation) -> int:
    return -1 if (w1.inversions * w2.inversions) % 2 else 1


RESIDUE_DOMAINS: Tuple[Tuple[int, int], ...] = ((2, 5), (3, 4), (4, 2))


def cone_box(rank: int, bound: int) -> Iterable[Tuple[int, ...]]:
    """All integral zero-sum vectors in the cone with |a_i| <= bound."""
    for head in product(range(-bound, bound + 1), repeat=rank):
        tail = -sum(head)
        if abs(tail) > bound:
            continue
        a = head + (tail,)
        if in_positive_cone(a):
            yield a


def _arbitrate(candidates: Dict, cases: Iterable, describe) -> Tuple[Dict, Optional[str]]:
    """Weigh each case's terms [(rule args, value)] by each candidate rule,
    sum(rule(*args) * value), against the case's expected count, until the
    rule's first wrong sum; returns the per-candidate record and the first
    survivor."""
    results = {
        name: {"passed": True, "checked": 0, "first_failure": None}
        for name in candidates
    }
    for case, expected, terms in cases:
        for name, rule in candidates.items():
            outcome = results[name]
            if not outcome["passed"]:
                continue
            got = sum(rule(*args) * value for args, value in terms)
            outcome["checked"] += 1
            if got != expected:
                outcome["passed"] = False
                outcome["first_failure"] = {**describe(case), "expected": expected, "got": got}
    selected = next((name for name in candidates if results[name]["passed"]), None)
    return results, selected


def _residue_terms(a: Tuple[int, ...]) -> List:
    """((w,), IRes^w) for each order w of the regularised a."""
    exponents = _exponents(a)
    orders = special_permutations(a if is_regular(a) else deform(a))
    return [((w,), iterated_residue(w, exponents)) for w in orders]


def arbitrate_residue_sign(domains: Tuple[Tuple[int, int], ...] = RESIDUE_DOMAINS) -> Dict:
    """Check both residue sign candidates against the DP count, exhaustively."""
    candidates = {
        "descent-count": descent_sign,
        "inversion-count": inversion_sign,
    }
    cases = ((a, kostant_partition_bruteforce(a), _residue_terms(a))
             for r, b in domains for a in cone_box(r, b))
    results, selected = _arbitrate(candidates, cases, lambda a: {"a": list(a)})
    return {
        "quantity": "per-order sign of the residue sum",
        "domains": [{"rank": r, "bound": b} for r, b in domains],
        "candidates": results,
        "selected": selected,
    }


def _couple_terms(lam, mu, nu) -> List[Tuple[Permutation, Permutation, Tuple[int, ...]]]:
    """(w1, w2, partition argument) of each valid couple of Steinberg's tensor
    sum, whose argument is w1(lam+rho) + w2(mu+rho) - (nu+2rho), and none
    when lam + mu - nu is off the root lattice."""
    lam, mu, nu = weight_triple(lam, mu, nu)
    shift1, shift2 = lam.canonical[-1], mu.canonical[-1]
    if (shift1 + shift2 - nu.canonical[-1]).denominator != 1:
        return []
    u1 = _plus_rho(_ints(lam.canonical, shift1))
    u2 = _plus_rho(_ints(mu.canonical, shift2))
    target = _plus_rho(_ints(nu.canonical, shift1 + shift2), 2)
    return [(w1, w2, tuple(u1[i - 1] + u2[j - 1] - t for i, j, t in zip(w1.images, w2.images, target)))
            for w1, w2 in valid_couples(u1, u2, target)]


def _tensor_family() -> List[Tuple[DominantWeight, DominantWeight, DominantWeight]]:
    """Small exhaustive triples, rank 1 and 2, matched to the root lattice."""
    triples = []
    for a in range(5):
        for b in range(5):
            for c in range(a + b + 3):
                if (a + b - c) % 2 == 0:
                    triples.append((
                        DominantWeight(from_fundamental([a])),
                        DominantWeight(from_fundamental([b])),
                        DominantWeight(from_fundamental([c])),
                    ))
    fc2 = list(product(range(3), repeat=2))
    for f1 in fc2:
        for f2 in fc2:
            for f3 in product(range(5), repeat=2):
                class1 = (f1[0] + 2 * f1[1] + f2[0] + 2 * f2[1]) % 3
                if (f3[0] + 2 * f3[1]) % 3 != class1:
                    continue
                triples.append((
                    DominantWeight(from_fundamental(f1)),
                    DominantWeight(from_fundamental(f2)),
                    DominantWeight(from_fundamental(f3)),
                ))
    return triples


def arbitrate_couple_sign() -> Dict:
    """Check both tensor-sum sign candidates against the tableau count."""
    candidates = {
        "signature-product": signature_product,
        "length-product-parity": length_product_sign,
    }
    cases = ((triple, tensor_bruteforce_lr(*triple),
              [((w1, w2), kostant_partition(arg)) for w1, w2, arg in _couple_terms(*triple)])
             for triple in _tensor_family())
    results, selected = _arbitrate(
        candidates,
        cases,
        lambda triple: {
            key: [str(x) for x in w.canonical] for key, w in zip(("lambda", "mu", "nu"), triple)
        },
    )
    return {
        "quantity": "couple sign of the tensor sum",
        "candidates": results,
        "selected": selected,
    }


def write_arbitration_record(path) -> Dict:
    """Run both arbitrations and write the record as JSON; returns the record."""
    record = {
        "residue_term_sign": arbitrate_residue_sign(),
        "couple_sign": arbitrate_couple_sign(),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2) + "\n")
    return record
