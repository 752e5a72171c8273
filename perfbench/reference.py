"""Fixed reference work that measures how fast the machine is right now.

A fresh interpreter imports the standard-library modules quatorder uses and
does a fixed amount of ``Fraction`` and big-integer arithmetic: the same
kinds of work as a quatorder process, but none of its code.  ``run.py``
starts it between program processes all through a run and scales each
end-to-end time by ``REFERENCE_NOMINAL_S`` over the median wall of the
reference processes nearest to it in time (see ``run.Rounds``).  On a shared
machine whose speed drifts by tens of percent within seconds, that cancels
most of the drift while leaving any change to quatorder in full.
"""

import argparse  # noqa: F401
import dataclasses  # noqa: F401
import json  # noqa: F401
import random  # noqa: F401
from fractions import Fraction

acc = Fraction(0)
for i in range(1, 2500):
    acc += Fraction(i % 97 - 48, i % 89 + 1) * Fraction(i % 13 + 1, 7)
big = 1
for i in range(1, 600):
    big = (big * (i + 2**61 - 1)) % (3**200 + 2)
if acc.denominator < 1 or big < 0:
    raise SystemExit(1)
