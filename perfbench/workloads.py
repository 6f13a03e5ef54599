"""Seeded generators for the benchmark's CLI invocation lists.

A workload is an endless sequence of passes; a pass is a fixed list of
invocation kinds, and the seed picks only the inputs of each invocation.
The fixed composition keeps a run's figures comparable across seeds, while
the drawn inputs keep any one input from being optimised for.  A run holds
a number of passes fixed by its length in seconds (see run_passes), never by
how fast the host happens to be, so equal arguments give equal invocations
and equal outcomes.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

EVAL_LEVEL = 10
SPECTRUM_LEVEL = 10
VERIFY_LEVEL = 4  # deepest level the dense oracle solves in seconds; L5 takes minutes
GRID_POINTS = 2000

# (series, m0, number of seed indices); six at m0 >= 2 has (3^m0 - 3)/2 seeds
SERIES_SEEDS = (("two", 1, 1), ("five", 1, 2), ("five", 2, 3), ("six", 1, 1),
                ("six", 2, 3), ("six", 3, 12))

# kind -> how many invocations of it one pass holds
PASSES = {
    "mesh": {"eval_csv": 1, "eval_json": 1, "eval_obj": 1},
    "spectral": {"spectrum": 4, "spectrum_verify": 1},
    "pointwise": {"tangent_verify": 6, "special_psi": 1, "special_upsilon": 1},
}

# seconds one untraced pass takes on the reference host (2 vCPUs of a shared
# x86-64 machine, Python 3.11); sizes a run, never read back as a result
NOMINAL_PASS_S = {"mesh": 13.0, "spectral": 8.0, "pointwise": 3.5}


@dataclass(frozen=True)
class Invocation:
    kind: str
    args: tuple  # sglap CLI arguments, subcommand first

    @property
    def verify(self) -> bool:
        return "--verify" in self.args


def _branches(rng: random.Random, length: int, forced_plus: bool) -> str:
    text = "".join(rng.choice("+-") for _ in range(length))
    if forced_plus and text:
        text = "+" + text[1:]  # the 6-series takes the plus root at m0 + 1
    return text


def series_seed(rng: random.Random, max_branches: int) -> str:
    """A `series:m0:index[:branches]` seed from the whole grammar."""
    series, m0, count = rng.choice(SERIES_SEEDS)
    spec = f"{series}:{m0}:{rng.randint(1, count)}"
    text = _branches(rng, rng.randint(0, max_branches), series == "six")
    return f"{spec}:{text}" if text else spec


def free_seed(rng: random.Random) -> str:
    lam = round(rng.uniform(-50.0, 50.0), 3)
    values = ",".join(str(rng.randint(-3, 3)) for _ in range(3))
    return f"free:{lam!r}:{values}"


def word(rng: random.Random) -> str:
    prefix = "".join(rng.choice("012") for _ in range(rng.randint(0, 6)))
    return f"{prefix}:{rng.choice('012')}"


def _fmt(rng: random.Random):
    return ("--format", rng.choice(("csv", "json")))


def _make(kind: str, rng: random.Random, series: str = "all") -> Invocation:
    if kind.startswith("eval_"):
        seed = series_seed(rng, EVAL_LEVEL - 1)
        args = ("eval", "--seed", seed, "--level", str(EVAL_LEVEL), "--format", kind[5:])
    elif kind == "spectrum":
        args = ("spectrum", "--level", str(SPECTRUM_LEVEL), "--series", series, *_fmt(rng))
    elif kind == "spectrum_verify":
        args = ("spectrum", "--level", str(VERIFY_LEVEL), "--verify",
                "--series", rng.choice(("all", "two", "five", "six")), *_fmt(rng))
    elif kind == "tangent_verify":
        seed = free_seed(rng) if rng.random() < 0.25 else series_seed(rng, 4)
        args = ("tangent", "--seed", seed, "--word", word(rng), "--verify", *_fmt(rng))
    elif kind == "special_psi":
        a, b = rng.uniform(-20.0, -5.0), rng.uniform(5.0, 20.0)
        args = ("special", "--fn", "psi", f"--range={a:.4f}:{b:.4f}:{GRID_POINTS}", *_fmt(rng))
    elif kind == "special_upsilon":
        a, b = rng.uniform(-50.0, -10.0), rng.uniform(10.0, 60.0)
        args = ("special", "--fn", "upsilon", f"--range={a:.4f}:{b:.4f}:{GRID_POINTS}",
                *_fmt(rng))
    else:
        raise ValueError(f"unknown invocation kind {kind!r}")
    return Invocation(kind, args)


def passes(workload: str, seed: int):
    """Yield the workload's passes forever; equal seeds give equal passes."""
    if workload not in PASSES:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(PASSES)}")
    rng = random.Random(f"{workload}:{seed}")
    while True:
        batch = []
        for kind, count in PASSES[workload].items():
            if kind == "spectrum":
                # one spectrum per --series filter, in seeded order
                filters = ["all", "two", "five", "six"]
                rng.shuffle(filters)
                batch += [_make(kind, rng, s) for s in filters[:count]]
            else:
                batch += [_make(kind, rng) for _ in range(count)]
        yield batch


def run_passes(workload: str, seed: int, seconds: float, traced: bool = False) -> list:
    """The passes a run of `seconds` makes: as many as take that long on the
    reference host, at least one; a traced run times each invocation twice."""
    pass_s = NOMINAL_PASS_S[workload] * (2 if traced else 1)
    return list(itertools.islice(passes(workload, seed), max(1, round(seconds / pass_s))))
