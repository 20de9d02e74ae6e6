"""Self-tests of the benchmark (``python -m pytest perfbench/tests -q``)."""
