"""Monte Carlo runs of the frame-relational model.

Every run both friends get definite internal outcomes, uniform and
independent of the outside observers' later choices.  A frame relation
exists only on the wings that get asked; it is computed at reveal time as
external * internal.  The observed pair statistics match the Born joints,
and the internal outcomes pass a choice-independence audit."""

from friendlab import relmodel, statlab
from friendlab.scenarios import LFConfig

cfg = LFConfig()
batch = relmodel.simulate_batch(cfg, 400000, seed=0)
print(f"{len(batch)} runs; first record:")
print(" ", batch.rows(1)[0])

tables, pair_checks = relmodel.observed_pair_checks(batch)
for pair_id, table, check in zip(statlab.PAIR_IDS, tables, pair_checks):
    e, _ = statlab.correlation_estimate(table)
    print(f"pair {pair_id}: n={sum(table)}, E={e:+.4f}, TV vs Born={check['observed']:.4f}")

checks, internal, report = relmodel.audit(batch)
print("internal joint frequencies:",
      {cell: round(f, 4) for cell, f in zip(statlab.PAIR_CELLS, statlab.freqs(internal))})
print("choice-independence flags:", report["flags"] or "none")
print("all audits pass:", all(c["pass"] for c in checks))
