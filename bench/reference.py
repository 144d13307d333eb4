"""A fixed task that measures how fast the machine is right now.

Its cost depends on the interpreter, numpy, scipy and the host, never on
the package under test: it starts an interpreter, imports numpy and
scipy.signal, and runs FFTs of a length with a large prime factor (as the
fm sweep does) and an IIR filter.  The benchmark runs it between its timed
commands and scales each time by it (see ``run.py``), so that the host's
slow phases, which change every process's speed by tens of percent for
minutes at a time, cancel out of the reported figures.
"""

import numpy as np
import scipy.signal

x = np.random.default_rng(0).standard_normal(17783 * 32)
for _ in range(2):
    x = np.fft.irfft(np.fft.rfft(x), x.size)
scipy.signal.lfilter([0.01], [1.0, -0.99], x)
