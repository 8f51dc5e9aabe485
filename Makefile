# Developer entry points for the VeCycle reproduction.

PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
export PYTHONPATH

.PHONY: install test lint bench summary examples figures runtime-demo clean

install:
	pip install -e . --no-build-isolation

test:
	python -m pytest tests/ -x -q

# Requires ruff (`pip install ruff`); CI runs the same checks and
# archives the JSON report.  `vecycle lint` is the project-aware pass:
# async safety and seeded determinism (see docs/static-analysis.md).
lint:
	ruff check src tests benchmarks
	python -m repro lint --format json > lint-report.json || \
		{ python -m repro lint; exit 1; }

bench:
	python -m pytest benchmarks/ --benchmark-only

# Printed tables for every figure, plus the one-page digest.
figures:
	python -m repro table1
	python -m repro fig3
	python -m repro rates
	python -m repro fig1
	python -m repro fig2
	python -m repro fig4
	python -m repro fig5
	python -m repro fig6
	python -m repro fig7
	python -m repro fig8

summary:
	python -m repro summary

# Live localhost migrations through the asyncio runtime: every strategy,
# cross-validated against the analytic model, plus one run that loses
# the connection mid-transfer and resumes.
runtime-demo:
	python -m repro runtime --size-mib 16 --strategy all
	python -m repro runtime --size-mib 16 --strategy vecycle --inject-disconnect 100

examples:
	set -e; for f in examples/*.py; do echo "== $$f"; python $$f; done

clean:
	rm -rf benchmarks/.trace-cache .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
