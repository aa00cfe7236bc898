"""Seeded workload generator for the qesf benchmark.

Each workload is a fixed list of slots, one (family, N) per slot. The seed
draws only the model parameters. Every draw stays in the slot's regime:
the same side of the nu = 1/2 limit-circle skip, A > N alpha for Morse, and
the same found-branch count.

Multi-start enumeration is chaotic in the parameters. Any change moves
which random starts converge, so a continuous parameter range cannot keep
the found-branch count fixed. The seed therefore picks each slot's
parameters from a vetted table, `vetted.json`. `vet.py` fills that table:
it draws candidates from RANGES below and keeps those whose found count
equals the slot's most common count. A second seed changes the inputs but
not the work mix.

The program under test only ever sees the generated config files. The
expected branch counts and their sources stay on the benchmark side.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

# Passed to `qesf solve --seed` so that the random Newton starts do not move
# with the model parameters (by default they come from a hash of the model).
MULTISTART_SEED = 12345

TYPE1_COUNT = ("N+1: a type-1 QES model has exactly N+1 polynomial solutions "
               "(Turbiner, CMP 118 (1988) 467; the sl(2) matrix prototype of "
               "ROADMAP item 1 finds all of them)")
ES_COUNT = "1: an exactly solvable family has one polynomial solution per N"
TYPE2_N1_COUNT = ("3: at N = 1 the BAE is a z^3 + b z = 0, with the three real "
                  "roots 0 and +-sqrt(-b/a) when b < 0")
SINGULAR_N1_COUNT = ("2: at N = 1 the BAE is c0 + z - mu/(z - a) = 0, a "
                     "quadratic with two real roots off the wall, since its "
                     "discriminant (c0 + a)^2 + 4 mu is positive")

# Parameter ranges, each with the reason for it.
RANGES = {
    "a_type1": ((0.9, 1.1), "leading sextic coefficient, O(1) so the root "
                            "scale and grid box stay comparable"),
    "b_type1": ((-0.25, 0.25), "small linear term of the sextic models"),
    "p_wall": ((0.3, 0.45), "half-line wall exponent at a turning point "
                            "(Q(0) = 0): nu = 2p in [0.6, 0.9], above the "
                            "nu = 1/2 limit-circle skip, so the FD spectrum "
                            "oracle runs; p = 1/2 (no singular term) is avoided"),
    "a_trig": ((0.95, 1.05), "trig-interval coupling strength"),
    "p_trig": ((0.3, 0.34), "trig-interval wall exponents: nu = 2p in "
                            "[0.6, 0.68], above the limit-circle skip"),
    "b_harmonic": ((0.8, 1.25), "oscillator frequency, O(1)"),
    "alpha": ((0.8, 1.2), "Morse range parameter, O(1)"),
    "A_margin": ((1.5, 3.0), "A = N alpha + margin, so A > N alpha and the "
                             "N-th Morse level is bound"),
    "B": ((0.3, 0.7), "morse-es coupling, O(1)"),
    "a_type2": ((0.95, 1.05), "type-2 quartic coefficient, near 1 because "
                              "the found count depends on b / a"),
    "b_type2": ((-3.1, -2.9), "b < 0 is the double-well type-2 sextic; near "
                              "b = -3 multi-start finds 5, 5, 1, 1, 1 "
                              "branches at N = 2, 4, 6, 8, 10"),
    "c0": ((-0.2, 0.2), "constant term of the singularity-induced polynomial "
                        "P = c0 + z"),
    "a_wall": ((-0.2, 0.2), "location of the singularity-induced wall, near "
                            "the oscillator centre"),
    "mu_lc": ((0.25, 0.4), "wall exponent where Q(a) != 0: nu = mu < 1/2, "
                           "the limit-circle regime where the FD spectrum "
                           "oracle is skipped"),
}

WHY = {
    "type1-spectrum": "type-1 and ES models: most branches share a potential, "
                      "verify's FD spectrum dominates, recall is below 1 at high N",
    "type2-multistart": "each branch has its own potential and multi-start is "
                        "the only finder; control workload for type-1 work",
}


@dataclass(frozen=True)
class Slot:
    """A (family, N) position of a workload and how its parameters are drawn."""

    tag: str
    family: str  # a catalog name, or "singular" for the explicit config
    N: int
    draw: Callable[[random.Random], dict]
    expected_branches: int | None  # None: the class does not fix the count
    expected_source: str
    closed_form: bool = False  # energies checked against catalog.expected_energies


@dataclass(frozen=True)
class Config:
    """One generated model: the config the CLI gets plus benchmark-side facts."""

    slot: Slot
    params: dict
    cfg: dict


def _u(rng: random.Random, key: str) -> float:
    lo, hi = RANGES[key][0]
    return round(rng.uniform(lo, hi), 6)


def _morse(N: int):
    def draw(rng):
        alpha = _u(rng, "alpha")
        return {"alpha": alpha, "A": round(N * alpha + _u(rng, "A_margin"), 6),
                "B": _u(rng, "B")}
    return draw


def _slots() -> dict[str, list[Slot]]:
    sextic = lambda rng: {"a": _u(rng, "a_type1"), "b": _u(rng, "b_type1")}
    halfline = lambda rng: {"a": _u(rng, "a_type1"), "b": _u(rng, "b_type1"),
                            "p": _u(rng, "p_wall")}
    trig = lambda rng: {"a": _u(rng, "a_trig"), "p1": _u(rng, "p_trig"),
                        "p2": _u(rng, "p_trig")}
    harmonic = lambda rng: {"b": _u(rng, "b_harmonic")}
    type2 = lambda rng: {"a": _u(rng, "a_type2"), "b": _u(rng, "b_type2")}
    singular = lambda rng: {"c0": _u(rng, "c0"), "a": _u(rng, "a_wall"),
                            "mu": _u(rng, "mu_lc")}
    type1 = ([Slot(f"sextic-N{N}", "sextic", N, sextic, N + 1, TYPE1_COUNT)
              for N in (4, 8, 10, 12, 16)]
             + [Slot(f"sextic-halfline-N{N}", "sextic-halfline", N, halfline, N + 1,
                     TYPE1_COUNT) for N in (6, 12)]
             + [Slot(f"trig-interval-N{N}", "trig-interval", N, trig, N + 1, TYPE1_COUNT)
                for N in (4, 8)]
             + [Slot("harmonic-N12", "harmonic", 12, harmonic, 1, ES_COUNT, True),
                Slot("morse-es-N8", "morse-es", 8, _morse(8), 1, ES_COUNT, True)])
    t2 = ([Slot("sextic-type2-N1", "sextic-type2", 1, type2, 3, TYPE2_N1_COUNT)]
          + [Slot(f"sextic-type2-N{N}", "sextic-type2", N, type2, None,
                  "type-2: the true count is open (ROADMAP item 4)") for N in (2, 4, 6, 8, 10)]
          + [Slot("singular-N1", "singular", 1, singular, 2, SINGULAR_N1_COUNT)]
          + [Slot(f"singular-N{N}", "singular", N, singular, None,
                  "singularity-induced: no count is known") for N in (2, 3)])
    # An odd number of slots each: the median solve then falls inside one
    # config's samples instead of in the gap between two configs.
    return {"type1-spectrum": type1, "type2-multistart": t2}


SLOTS = _slots()
# Solvability class (model.classify tag) every config of a family must have.
FAMILY_CLASS = {"sextic": "qes-type1", "sextic-halfline": "qes-type1",
                "trig-interval": "qes-type1", "harmonic": "exactly-solvable",
                "morse-es": "exactly-solvable",
                "sextic-type2": "qes-type2", "singular": "qes-singularity-induced"}
VETTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "vetted.json")


def build_config(slot: Slot, params: dict) -> dict:
    """The JSON config handed to `qesf solve` / `qesf verify`."""
    if slot.family == "singular":
        return {"Q": [1.0], "P": [params["c0"], 1.0],
                "singularities": [{"a": params["a"], "mu": params["mu"]}],
                "N": slot.N}
    return {"catalog": slot.family, "params": dict(params), "N": slot.N}


def generate(workload: str, seed: int) -> list[Config]:
    """The configs of one workload; the same (workload, seed) gives the same list."""
    if workload not in SLOTS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(SLOTS)}")
    with open(VETTED_PATH) as fh:
        vetted = json.load(fh)["slots"]
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for slot in SLOTS[workload]:
        params = rng.choice(vetted[slot.tag]["params"])
        out.append(Config(slot, params, build_config(slot, params)))
    return out
