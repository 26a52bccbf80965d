"""Hot-path kernels: batched counting rows, block stepping, demand tables.

This package is a *leaf*: it imports nothing from :mod:`repro.csp`,
:mod:`repro.baselines` or :mod:`repro.analysis`, so any layer can call
into it without cycles.  Each kernel has exactly one production
implementation, and each is pure Python or numpy depending on which one
measured faster:

* :mod:`repro.kernels.fixpoint` — the engine's counting rows, batched
  into plain-Python inline tables.  A numpy call costs microseconds of
  dispatch, more than a whole node's bookkeeping at these row sizes;
* :mod:`repro.kernels.simulate` — the block-stepping simulator, pure
  Python with a list-of-rows history (a numpy history buffer measured
  slower);
* :mod:`repro.kernels.demand` — the all-pairs demand tables, numpy
  prefix sums over thousands of slots per call, where vectorisation
  wins outright.

numpy is a declared dependency of the package, so nothing here is gated
on it.
"""
