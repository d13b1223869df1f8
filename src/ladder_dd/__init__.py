"""Coherence decay of ladder-type n-level systems under pulsed decoupling.

Builds the cyclic pulse group that averages away pure dephasing of a ladder
atom, generates periodic and Uhrig pulse schedules, evaluates the resulting
filter functions against an Ohmic bath, and validates the whole analytic
chain with a brute-force truncated-Fock evolution.
"""

__version__ = "0.1.0"
