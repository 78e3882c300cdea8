"""Regenerates a gate library equivalent to the one shipped under
src/pbitsim/gates/: the same terminals, truth tables, ground states and gaps,
and byte-identical AND, OR, NOT and COPY files (tests/test_networks.py).

Every gate comes from the gap-maximizing LP synthesizer with a fixed
auxiliary-spin assignment per truth row. Run as
``python -m pbitsim.libgen [outdir]``.
"""

from __future__ import annotations

import sys
from pathlib import Path

from .networks import save_gate, synthesize_gate_lp

AND_TABLE = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)]
OR_TABLE = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
NOT_TABLE = [(0, 1), (1, 0)]
COPY_TABLE = [(0, 0), (1, 1)]
XOR_TABLE = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
HALF_ADDER_TABLE = [(0, 0, 0, 0), (0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 0, 1)]


def full_adder_table():
    rows = []
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                rows.append((a, b, c, a ^ b ^ c, (a + b + c) >> 1))
    return rows


def make_and():
    return synthesize_gate_lp(AND_TABLE, name="and", labels=["A", "B", "C"])


def make_or():
    return synthesize_gate_lp(OR_TABLE, name="or", labels=["A", "B", "C"])


def make_not():
    return synthesize_gate_lp(NOT_TABLE, name="not", labels=["A", "Y"], inputs=["A"],
                              outputs=["Y"])


def make_copy():
    return synthesize_gate_lp(COPY_TABLE, name="copy", labels=["A", "Y"], inputs=["A"],
                              outputs=["Y"])


def make_xor():
    # aux pattern: carry bit a&b (the quadratic witness for parity) plus
    # replicas of the two inputs
    return synthesize_gate_lp(
        XOR_TABLE,
        n_aux=3,
        name="xor",
        labels=["A", "B", "S"],
        inputs=["A", "B"],
        outputs=["S"],
        aux_assignments=[(0b000, 0b001, 0b010, 0b111)],
    )


def make_half_adder():
    # aux pattern: OR and NAND of the inputs. Input replicas also verify but
    # leave spurious local minima right at the ground gap, which the sampler
    # can occupy for very long stretches; this pair doubles the gap and pushes
    # every local minimum twice as high as the gap.
    aux = [tuple(((a | b) << 1) | (1 - (a & b)) for a, b, _, _ in HALF_ADDER_TABLE)]
    return synthesize_gate_lp(
        HALF_ADDER_TABLE,
        n_aux=2,
        name="half_adder",
        labels=["A", "B", "S", "C"],
        inputs=["A", "B"],
        outputs=["S", "C"],
        aux_assignments=aux,
    )


def make_full_adder():
    # Direct 14-spin synthesis. Composing XOR/AND/OR Hamiltonians over shared
    # spins also verifies, but the summed landscape has local minima at the
    # ground gap with flat escape paths, and the sampler stalls in them for
    # thousands of retention times. Synthesizing the whole gate with auxiliary
    # spins fixed to explicit functions of the inputs yields the same 14-unit
    # footprint with all local minima at or above twice the ground gap.
    fns = (
        lambda a, b, c: a,
        lambda a, b, c: b,
        lambda a, b, c: c,
        lambda a, b, c: a & b,
        lambda a, b, c: a & c,
        lambda a, b, c: b & c,
        lambda a, b, c: a ^ b,
        lambda a, b, c: (a ^ b) & c,
        lambda a, b, c: a | b,
    )
    assign = []
    for a, b, c, _s, _co in full_adder_table():
        word = 0
        for fn in fns:
            word = (word << 1) | fn(a, b, c)
        assign.append(word)
    return synthesize_gate_lp(
        full_adder_table(),
        n_aux=9,
        name="full_adder",
        labels=["A", "B", "CIN", "S", "COUT"],
        inputs=["A", "B", "CIN"],
        outputs=["S", "COUT"],
        aux_assignments=[tuple(assign)],
    )


# each shipped gate's maker, in the order of networks.SHIPPED_GATES
MAKERS = {"and": make_and, "or": make_or, "not": make_not, "copy": make_copy,
          "xor": make_xor, "half_adder": make_half_adder, "full_adder": make_full_adder}


def build_library(outdir):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    gates = [make() for make in MAKERS.values()]
    for gate in gates:
        save_gate(gate, outdir / f"{gate.name}.json")
    return gates


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent / "gates"
    for g in build_library(target):
        print(f"{g.name}: {g.n} spins, verified={g.verified}")
