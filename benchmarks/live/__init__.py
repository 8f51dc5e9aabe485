"""The live-path benchmark: four workloads, end to end and layer by layer.

``python -m benchmarks.live.run`` is the one command; ``README.md`` in
this directory says what each workload stresses and how the fixture is
kept outside the clock.
"""
