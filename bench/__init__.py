"""The repo benchmark: closed-loop protocol-regime workloads over ``repro``.

Everything here drives the system from outside, through ``repro``'s public
scenario API; nothing under ``src/`` knows the benchmark exists.  Numbers are
labelled **sim** (simulated ms / exact counts, bit-identical for a given seed)
or **host** (wall seconds on the benchmark box, noisy).  See ``README.md``.
"""
