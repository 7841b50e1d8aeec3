"""The Born sampler as it stood in `hilbert` before `relmodel.draw_cells`
replaced it: its body kept as it was (searchsorted, then clip), with the
uniforms passed in instead of drawn, as the reference that tests hold
`draw_cells` to."""

import numpy as np


def sample_outcomes(probs, u) -> np.ndarray:
    """The outcome index that each uniform in `u` draws from the
    probabilities `probs`: the first outcome whose cumulative probability
    exceeds it.  A zero-probability outcome has an empty interval, so it is
    never selected; a uniform in the float round-off tail goes to the last
    positive-probability outcome."""
    probs = np.array(probs)
    idx = np.searchsorted(np.cumsum(probs), u, side="right")
    return np.minimum(idx, np.flatnonzero(probs)[-1])
