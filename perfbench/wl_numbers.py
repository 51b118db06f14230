"""Workload ``numbers``: the operations of ``wl_measures`` (exact measures
over 8, 12 and 16 atoms, product measures) and of ``wl_numeric`` (window
sums, point probabilities, the sampler, sequence-number verdicts, density
filter) in one round.

They share a workload so that each run can measure for longer within the
benchmark's time budget: on a machine whose speed drifts from one half
minute to the next, a longer run is what keeps run-to-run spread down.
"""

from __future__ import annotations

import wl_measures
import wl_numeric

#: About 3.5 operations per round lie above this percentile, in the middle
#: of the n=16 condition and classify_pair group; every run has at least
#: three rounds, so at least ten samples lie beyond it.
TAIL_PCT = 97.5
RSS = "self"


def generate(seed: int) -> dict:
    return {"measures": wl_measures.generate(seed), "numeric": wl_numeric.generate(seed)}


class State:
    def __init__(self, plogic, inputs, workdir):
        self.plogic = plogic
        self.parts = (wl_measures.build(plogic, inputs["measures"], workdir),
                      wl_numeric.build(plogic, inputs["numeric"], workdir))

    def round(self, r: int):
        return [op for part in self.parts for op in part.round(r)]

    def probes(self):
        return [probe for part in self.parts for probe in part.probes()]


def build(plogic, inputs, workdir) -> State:
    return State(plogic, inputs, workdir)
