"""Seeded workload definitions for the rabi-spectra benchmark.

Every workload is one `rabi-spectra` CLI invocation.  The seed selects an
input variant: regular seeds map onto ``seed % REGULAR_VARIANTS``, and
HELD_OUT_SEED has a variant of its own that later performance claims must
also hold on.  A variant jitters each grid by a sub-step offset and, for the
oracle, picks g1 in [0.5, 1.2].  Grids always reach the CLI as explicit
comma lists of round-tripping floats, never as ``start:stop:step``, so grid
parsing changes cannot alter the inputs.

Each variant has a recorded reference output under ``reference/``; a
finite variant set is what lets every seed be checked against one.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

REGULAR_VARIANTS = 3
HELD_OUT_SEED = 977
NAMES = ("sweep-approx", "sweep-exact", "oracle-n300", "scan-dense")

# Fig-3 design shared by both sweeps and the oracle.
_DESIGN = ("--omega", "1.0", "--delta2", "2.0", "--g2", "0.7")


def variant_of(seed: int) -> str:
    if seed == HELD_OUT_SEED:
        return "heldout"
    return str(seed % REGULAR_VARIANTS)


def _grid(rng: random.Random, start: float, stop: float, n: int) -> list[float]:
    """n points spaced evenly from start to stop, shifted by a random
    fraction of one step."""
    step = (stop - start) / (n - 1)
    offset = rng.random() * step
    return [start + offset + i * step for i in range(n)]


def _csv(values: list[float]) -> str:
    return ",".join(repr(v) for v in values)


@dataclass(frozen=True)
class Workload:
    """One CLI invocation: full-size argv plus a tiny warm-up argv.

    Both argv lists leave out --out; the runner appends it.
    """
    name: str
    variant: str
    argv: tuple[str, ...]
    tiny_argv: tuple[str, ...]


def build(name: str, seed: int) -> Workload:
    """Inputs of workload `name` for `seed`; the same seed gives the same argv."""
    variant = variant_of(seed)
    rng = random.Random(f"rabi-spectra-bench/{name}/{variant}")
    if name in ("sweep-approx", "sweep-exact"):
        if name == "sweep-approx":
            g1 = _grid(rng, 0.1, 1.3, 240)
            rest = ("--n-blocks", "8", "--mode", "approx")
        else:
            g1 = _grid(rng, 0.1, 1.3, 3)
            rest = ("--n-blocks", "200", "--mode", "exact")
        argv = ("spectrum", *_DESIGN, "--g1-grid", _csv(g1), *rest)
        tiny = ("spectrum", *_DESIGN, "--g1-grid", _csv(g1[:3]),
                "--n-blocks", "8", "--mode", rest[3])
    elif name == "oracle-n300":
        g1 = repr(0.5 + 0.7 * rng.random())
        common = ("oracle-compare", *_DESIGN, "--g1", g1, "--n-levels", "6")
        argv = (*common, "--n-max", "300")
        tiny = (*common, "--n-max", "8")
    elif name == "scan-dense":
        omegas = _grid(rng, 0.5, 1.5, 21)
        deltas = _grid(rng, 0.5, 3.0, 26)
        g2s = _grid(rng, 0.05, 1.0, 16)
        common = ("scan-window", "--g1", "0.9")
        argv = (*common, "--omega-values", _csv(omegas),
                "--delta2-values", _csv(deltas), "--g2-grid", _csv(g2s))
        tiny = (*common, "--omega-values", _csv(omegas[:1]),
                "--delta2-values", _csv(deltas[:1]), "--g2-grid", _csv(g2s[:3]))
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return Workload(name=name, variant=variant, argv=argv, tiny_argv=tiny)
