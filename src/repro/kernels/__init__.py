"""Hot-path kernels: block stepping and demand sweeps.

This package is a *leaf*: it imports nothing from :mod:`repro.csp`,
:mod:`repro.baselines` or :mod:`repro.analysis`, so any layer can call
into it without cycles.  Each kernel has exactly one production
implementation, and each is pure Python or numpy depending on which one
measured faster:

* :mod:`repro.kernels.simulate` — the block-stepping simulator, pure
  Python with a list-of-rows history (a numpy history buffer measured
  slower);
* :mod:`repro.kernels.demand` — the all-pairs demand sweeps, numpy
  prefix sums over thousands of slots per row, where vectorisation
  wins outright.

The engine's counting rows are not a kernel: they keep their
aggregates through their own ``on_event`` hooks (see
:mod:`repro.csp.wiring`).

numpy is a declared dependency of the package, so nothing here is gated
on it.
"""
