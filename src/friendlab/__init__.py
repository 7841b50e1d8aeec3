"""friendlab: desk-scale simulation and feasibility analysis for Extended
Wigner's Friend experiments.

Modules:

* hilbert -- dense state-vector engine (named tensor factors, unitaries,
  projective measurement, Born sampling);
* scenarios -- builders for the sealed-lab, frame-relational, four-observer
  and sequential-measurement experiments;
* marginal_polytope -- exact-rational feasibility of pairwise targets via
  phase-1 simplex, cross-checked against the analytic CHSH criterion;
* relmodel -- Monte Carlo runs of the frame-relational model where frame
  relations exist only on ask runs, and the audit of a batch of runs;
* statlab -- the pair vocabulary (pair ids, pair-table cells, the choice
  behind each variable letter, the correlator and the CHSH sum), count-table
  frequencies, TV distance, estimators, pass/fail check dicts;
* acceptance -- the criteria behind `friendlab accept`;
* cli -- command-line orchestration.
"""

from . import hilbert, marginal_polytope, relmodel, scenarios, statlab

__all__ = ["hilbert", "scenarios", "marginal_polytope", "relmodel", "statlab"]

__version__ = "0.1.0"
