"""perfbench — the repo's benchmark: workloads, measurement, tracing, CLI.

Everything here measures ``repro`` from outside, through its public
functions; see ``README.md`` in this directory.
"""
