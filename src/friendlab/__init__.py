"""friendlab: desk-scale simulation and feasibility analysis for Extended
Wigner's Friend experiments.

Modules, none importing one listed below it, each imported on first use:

* statlab -- the pair vocabulary (pair ids, pair-table cells, the choice
  behind each variable letter, the correlator and the CHSH sum), count-table
  frequencies, TV distance, estimators, pass/fail check dicts;
* marginal_polytope -- exact feasibility of pairwise targets by Fine's gluing
  in integer counts, each verdict checked by its witness or certificate;
* hilbert -- dense state-vector engine in Python numbers (named tensor
  factors, unitaries, the Born probabilities of computational-basis readings);
* scenarios -- builders for the sealed-lab, frame-relational, four-observer
  and sequential-measurement experiments, and the circuit's exact targets;
* relmodel -- Born sampling, Monte Carlo runs of the frame-relational model
  where frame relations exist only on ask runs (drawn by numpy), the
  sequential runs (drawn by the standard library's `random`, so `rovelli`
  loads no numpy), and the audit of a batch of runs;
* acceptance -- the criteria behind `friendlab accept`;
* cli -- command-line orchestration; each command imports what it uses.
"""

import functools
import importlib

__all__ = ["hilbert", "scenarios", "marginal_polytope", "relmodel", "statlab"]

__version__ = "0.1.0"


@functools.cache
def _submodule(name: str):
    """The submodule `name`, imported on the first call; a later call is a
    cache hit, where an import statement in a function runs importlib each time."""
    return importlib.import_module(f"{__name__}.{name}")


def __getattr__(name: str):  # PEP 562: `import friendlab` loads no numpy
    if name in __all__:
        return _submodule(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
