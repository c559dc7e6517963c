"""IRS-aided NLoS target localization with unknown BS-IRS channel.

Library layout:

* :mod:`irsloc.scene` -- ground-truth world synthesis (channel, steering
  vector, target coefficient);
* :mod:`irsloc.pilot` -- full-duplex differential pilot protocol and the
  stacked linear observation model;
* :mod:`irsloc.chanest` -- sign-ambiguous channel estimation
  (initialization + coordinate-descent ML refinement);
* :mod:`irsloc.bqp` -- exact sign-vector quadratic / ratio maximization
  (split-table enumeration, Dinkelbach, ILP cross-check);
* :mod:`irsloc.localize` -- per-cycle Bayesian multi-hypothesis
  localization engine;
* :mod:`irsloc.waveopt` -- joint transmit-waveform / IRS-phase design by
  exact element-wise phase ascent (the paper's penalty method kept as the
  reference);
* :mod:`irsloc.harness` -- reproducible Monte Carlo experiment campaigns;
* :mod:`irsloc.cli` -- command-line front end.
"""

__version__ = "0.1.0"
